package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV serializes a trace in the canonical layout: a two-line header
// (name/class/interval, then column labels) followed by one row per server.
// No field is quoted, so a name or class holding a comma, a quote, a CR or
// an LF is refused.
func (t *Trace) WriteCSV(w io.Writer) error {
	src, err := NewTraceSource(t) // validates t
	if err != nil {
		return err
	}
	cw, err := newCSVWriter(w, src.Meta())
	if err != nil {
		return err
	}
	for s, u := range t.U {
		cw.startRow(s)
		for _, v := range u {
			cw.value(v)
		}
		if err := cw.endRow(); err != nil {
			return err
		}
	}
	return cw.flush()
}

// ReadCSV parses a trace previously written with WriteCSV. It also accepts
// headerless matrices (one server per row) with default metadata. It reads
// r to the end and decodes it with CSVSource, so it takes what CSVSource
// takes: no quoted fields, and no field longer than 64 bytes.
func ReadCSV(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	src, err := NewCSVSource(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return Materialize(src)
}

// csvWriter emits the canonical CSV, the one layout the package writes:
// the #h2p-trace meta row, the column-label row, then per server its id
// and its utilizations in strconv's shortest 'g' form, each row ending in
// '\n'. Fields are never quoted. A write error sticks in the bufio.Writer:
// endRow and flush report it.
type csvWriter struct {
	bw *bufio.Writer
}

// newCSVWriter refuses a name or class that would need quoting, then
// writes m's two header rows.
func newCSVWriter(w io.Writer, m Meta) (*csvWriter, error) {
	if strings.ContainsAny(m.Name+string(m.Class), ",\"\r\n") {
		return nil, fmt.Errorf("trace: name/class %q/%q need CSV quoting, which the canonical writer never emits; rename the trace", m.Name, m.Class)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	fmt.Fprintf(bw, "#h2p-trace,%s,%s,%s\nserver", m.Name, m.Class, m.Interval)
	for i := 0; i < m.Intervals; i++ {
		fmt.Fprintf(bw, ",t%d", i)
	}
	bw.WriteByte('\n')
	return &csvWriter{bw: bw}, nil
}

// startRow opens server s's row with its id.
func (c *csvWriter) startRow(s int) {
	c.bw.WriteString(strconv.Itoa(s))
}

// value appends one utilization to the open row.
func (c *csvWriter) value(v float64) {
	c.bw.Write(strconv.AppendFloat(append(c.bw.AvailableBuffer(), ','), v, 'g', -1, 64))
}

// endRow ends the open row and reports any write error so far.
func (c *csvWriter) endRow() error { return c.bw.WriteByte('\n') }

// flush writes out what is buffered.
func (c *csvWriter) flush() error { return c.bw.Flush() }
