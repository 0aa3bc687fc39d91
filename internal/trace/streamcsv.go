package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// The canonical CSV layout is server-major (one row per server), but the
// engine pulls interval-major columns. CSVSource squares that with an
// O(servers) working set: an index pass records each data row's byte span,
// then one cursor per row walks its fields in lockstep. Every row cursor
// buffers its bytes in its own slot of one shared slab, and one visit to a
// row decodes csvBlock consecutive fields into a column-major staging block,
// so most NextColumn calls only copy a staged column out. Memory is
// O(servers × (csvRowBufSize + 8·csvBlock)) bytes regardless of how many
// intervals the file holds; the matrix itself never exists in memory.

// csvRowBufSize is each row cursor's slot in the slab: large enough to cover
// a couple of dozen float fields per refill, small enough that a fleet-sized
// trace (12.5k servers) needs only ~6 MiB of cursor buffers.
const csvRowBufSize = 512

// csvMaxFieldLen bounds a single CSV field; the longest float64 the writer
// emits is ~24 bytes, so anything past this is a corrupt or hostile file.
const csvMaxFieldLen = 64

// csvBlock is how many consecutive fields one row visit decodes: the staging
// block holds csvBlock columns of float64s (1.6 MB at 12.5k servers).
const csvBlock = 16

// csvIndexChunk is the index pass's read size.
const csvIndexChunk = 64 << 10

// csvMetaPrefix opens a #h2p-trace meta row that has more than one field.
const csvMetaPrefix = "#h2p-trace,"

var (
	errCSVQuoted       = errors.New("quoted fields are not supported by the streaming reader")
	errCSVFieldTooLong = fmt.Errorf("field exceeds %d bytes", csvMaxFieldLen)
	errCSVMetaTooWide  = errors.New("trace: malformed meta row (more than 4 fields, want 4)")
)

// CSVSource streams a canonical (WriteCSV-layout) trace file column by
// column. It accepts the same two layouts ReadCSV does — the two-line
// #h2p-trace header, or a headerless matrix with default metadata — but
// not quoted fields, which the canonical writer never emits, nor fields
// longer than 64 bytes.
type CSVSource struct {
	meta Meta
	ra   io.ReaderAt
	rows []csvCursor // one per server row
	// slab holds every row cursor's read buffer, csvRowBufSize bytes each,
	// and block the staged columns, column-major: block[k*servers+r] is row
	// r's value at interval blockStart+k. Both are allocated by the first
	// NextColumn, so opening a file only to read its Meta costs the index.
	slab  []byte
	block []float64
	field []byte // scratch for a field that straddles a refill
	next  int
	// Columns [blockStart, blockEnd) are staged. When err is set, it is the
	// decode error of interval blockEnd, returned once that interval is due.
	blockStart, blockEnd int
	err                  error
	closer               io.Closer
}

// csvCursor walks one data row: the file bytes [off, end) are still unread,
// and [lo, hi) of the row's slab slot holds read bytes not yet consumed.
type csvCursor struct {
	off, end int64
	lo, hi   int
}

// OpenCSVFile opens path as a streaming trace source. Close releases the
// underlying file.
func OpenCSVFile(path string) (*CSVSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	src, err := NewCSVSource(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	src.closer = f
	return src, nil
}

// NewCSVSource indexes the canonical CSV held by ra and returns a source
// positioned at interval 0. The index pass streams the file once with a
// fixed-size buffer; only the per-row offsets (O(servers)) are retained.
func NewCSVSource(ra io.ReaderAt, size int64) (*CSVSource, error) {
	idx, err := indexCSV(ra, size, csvIndexChunk)
	if err != nil {
		return nil, err
	}
	meta := Meta{Name: "csv-trace", Class: Class("unknown"), Interval: 5 * time.Minute}
	if idx.metaFields != nil {
		if len(idx.metaFields) != 4 {
			return nil, fmt.Errorf("trace: malformed meta row (%d fields, want 4)", len(idx.metaFields))
		}
		meta.Name = idx.metaFields[1]
		meta.Class = Class(idx.metaFields[2])
		d, err := time.ParseDuration(idx.metaFields[3])
		if err != nil {
			return nil, fmt.Errorf("trace: bad interval: %w", err)
		}
		meta.Interval = d
	}
	meta.Servers = len(idx.rows)
	meta.Intervals = idx.intervals
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	return &CSVSource{meta: meta, ra: ra, rows: idx.rows}, nil
}

// Meta reports the file's shape.
func (s *CSVSource) Meta() Meta { return s.meta }

// Close releases the backing file when the source owns one.
func (s *CSVSource) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// NextColumn fills dst with the next interval's parsed utilizations, staging
// the next block of columns first when the current one is used up.
func (s *CSVSource) NextColumn(dst []float64) (int, error) {
	if s.next >= s.meta.Intervals {
		return 0, io.EOF
	}
	n := s.meta.Servers
	if len(dst) != n {
		return 0, fmt.Errorf("trace: column buffer has %d slots, want %d", len(dst), n)
	}
	if s.next == s.blockEnd && s.err == nil {
		s.fill()
	}
	i := s.next
	if i == s.blockEnd {
		return 0, s.err
	}
	k := i - s.blockStart
	copy(dst, s.block[k*n:(k+1)*n])
	if err := validateColumn(dst, i); err != nil {
		return 0, err
	}
	s.next++
	return i, nil
}

// fill stages the columns from interval next on: each row visit decodes up
// to csvBlock consecutive fields. A decode error ends the staged run just
// before its interval, so the columns ahead of it are still delivered. The
// error kept is the one a column-at-a-time reader would meet first: lowest
// interval, then lowest row — later rows only decode the fields before the
// earliest failing interval seen so far.
func (s *CSVSource) fill() {
	n := s.meta.Servers
	if s.slab == nil {
		s.slab = make([]byte, n*csvRowBufSize)
		s.block = make([]float64, min(csvBlock, s.meta.Intervals)*n)
		s.field = make([]byte, 0, csvMaxFieldLen+csvRowBufSize)
		for r := range s.rows {
			if _, err := s.readField(&s.rows[r], s.slot(r)); err != nil {
				s.err = fmt.Errorf("trace: row %d server id: %w", r, err)
				return
			}
		}
	}
	start := s.next
	width := min(csvBlock, s.meta.Intervals-start)
	for r := range s.rows {
		c, buf := &s.rows[r], s.slot(r)
		for k := 0; k < width; k++ {
			f, err := s.readField(c, buf)
			var v float64
			if err == nil {
				v, err = parseFloat(f)
			}
			if err != nil {
				width = k
				s.err = fmt.Errorf("trace: row %d interval %d: %w", r, start+k, err)
				break
			}
			s.block[k*n+r] = v
		}
	}
	s.blockStart, s.blockEnd = start, start+width
}

// slot is row r's read buffer in the slab.
func (s *CSVSource) slot(r int) []byte {
	return s.slab[r*csvRowBufSize : (r+1)*csvRowBufSize]
}

// readField consumes the row's next comma-delimited field; buf is the row's
// slab slot. The result aliases buf, or the source's scratch when the field
// straddles a refill; it is valid until the next readField. The last field
// of a row ends at the row's end instead of a comma.
func (s *CSVSource) readField(c *csvCursor, buf []byte) ([]byte, error) {
	win := buf[c.lo:c.hi]
	if i := bytes.IndexByte(win, ','); i >= 0 {
		c.lo += i + 1
		return checkField(win[:i])
	}
	f := append(s.field[:0], win...)
	c.lo = c.hi
	for len(f) <= csvMaxFieldLen {
		if c.off >= c.end {
			if len(f) == 0 {
				return nil, io.ErrUnexpectedEOF
			}
			break
		}
		if err := s.refill(c, buf); err != nil {
			return nil, err
		}
		win = buf[:c.hi]
		if i := bytes.IndexByte(win, ','); i >= 0 {
			c.lo = i + 1
			f = append(f, win[:i]...)
			break
		}
		f = append(f, win...)
		c.lo = c.hi
	}
	s.field = f
	return checkField(f)
}

// refill reads the row's next bytes into its slab slot buf. A file shorter
// than the index saw ends the row early, as a section reader would.
func (s *CSVSource) refill(c *csvCursor, buf []byte) error {
	want := min(int64(len(buf)), c.end-c.off)
	n, err := s.ra.ReadAt(buf[:want], c.off)
	if int64(n) < want {
		if err != nil && err != io.EOF {
			return err
		}
		c.end = c.off + int64(n)
	}
	c.off += int64(n)
	c.lo, c.hi = 0, n
	return nil
}

// checkField applies the streaming reader's field rules in the order a
// byte-at-a-time scan meets them: a quote within the first csvMaxFieldLen+1
// bytes, then the length cap.
func checkField(f []byte) ([]byte, error) {
	head := f[:min(len(f), csvMaxFieldLen+1)]
	if bytes.IndexByte(head, '"') >= 0 {
		return nil, errCSVQuoted
	}
	if len(f) > csvMaxFieldLen {
		return nil, errCSVFieldTooLong
	}
	return f, nil
}

// csvIndex is the outcome of the indexing pass.
type csvIndex struct {
	metaFields []string // nil when the file is headerless
	intervals  int
	rows       []csvCursor // positioned at each data row's start
}

// indexCSV streams the file once in chunk-byte reads, recording each data
// line's byte span and comma count. Empty lines are skipped and a trailing
// CR is not part of its line, as for ReadCSV. The first non-empty line is a meta
// row when its first field is #h2p-trace; its bytes are kept only until a
// fourth comma proves it malformed. The line after it is the column-label
// row, which ReadCSV skips unchecked and so does the index.
// Rectangularity is enforced here so the row cursors can never
// desynchronize mid-stream.
func indexCSV(ra io.ReaderAt, size int64, chunk int) (*csvIndex, error) {
	idx := &csvIndex{intervals: -1}
	var (
		buf       = make([]byte, min(size, int64(chunk)))
		pos       int64
		lineStart int64
		commas    int
		last      byte // last byte of the current line so far
		lines     int  // non-empty lines ended so far
		capture   []byte
		capturing = true // the first line may still be a meta row: keep its bytes
		quoted    bool   // the column-label row holds a quote
	)
	endLine := func(end int64) error {
		if last == '\r' {
			end--
			if capturing {
				capture = capture[:len(capture)-1]
			}
		}
		if end == lineStart { // empty line (e.g. trailing newline): skip
			capture = capture[:0]
			return nil
		}
		defer func() { lines++ }()
		switch {
		case lines == 0 && capturing:
			capturing = false
			if line := string(capture); line == "#h2p-trace" || strings.HasPrefix(line, csvMetaPrefix) {
				if strings.Contains(line, `"`) {
					return fmt.Errorf("trace: meta row: %w", errCSVQuoted)
				}
				idx.metaFields = strings.Split(line, ",")
				return nil
			}
			// Headerless matrix: this is a data row; fall through.
		case lines == 1 && idx.metaFields != nil:
			if quoted {
				return fmt.Errorf("trace: column-label row: %w", errCSVQuoted)
			}
			return nil
		}
		if idx.intervals < 0 {
			idx.intervals = commas
			if idx.intervals < 1 {
				return fmt.Errorf("trace: CSV rows need a server id and at least one sample")
			}
		} else if commas != idx.intervals {
			return fmt.Errorf("trace: row %d has %d fields, want %d", len(idx.rows), commas+1, idx.intervals+1)
		}
		idx.rows = append(idx.rows, csvCursor{off: lineStart, end: end})
		return nil
	}
	for pos < size {
		n, err := ra.ReadAt(buf[:min(int64(len(buf)), size-pos)], pos)
		if err != nil && err != io.EOF {
			return nil, err
		}
		if n == 0 {
			break
		}
		for b := buf[:n]; len(b) > 0; {
			seg, rest, nl := bytes.Cut(b, []byte{'\n'})
			commas += bytes.Count(seg, []byte{','})
			if len(seg) > 0 {
				last = seg[len(seg)-1]
			}
			if capturing {
				capture = append(capture, seg...)
				if len(capture) > len(csvMetaPrefix) && !bytes.HasPrefix(capture, []byte(csvMetaPrefix)) {
					capturing, capture = false, nil
				} else if commas > 3 && len(capture) > len(csvMetaPrefix) {
					// A fifth field already makes the meta row malformed;
					// stop here rather than hold the rest of the line.
					return nil, errCSVMetaTooWide
				}
			}
			if lines == 1 && idx.metaFields != nil && bytes.IndexByte(seg, '"') >= 0 {
				quoted = true
			}
			pos += int64(len(seg))
			if nl {
				if err := endLine(pos); err != nil {
					return nil, err
				}
				pos++
				lineStart, commas, last = pos, 0, 0
			}
			b = rest
		}
	}
	if pos > lineStart {
		if err := endLine(pos); err != nil {
			return nil, err
		}
	}
	if len(idx.rows) == 0 {
		return nil, fmt.Errorf("trace: CSV has no data rows")
	}
	return idx, nil
}
