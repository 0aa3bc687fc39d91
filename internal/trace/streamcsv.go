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
// then one {off, end} cursor per row walks its fields in lockstep. One row
// visit decodes a few dozen consecutive fields into a column-major staging
// block, so most NextColumn calls only copy a staged column out. The rows'
// bytes pass through one shared read stripe, and fields are parsed in place
// out of it. A read loads a window of one row sized to its next visit, from
// the row's average field, and goes on over the windows of the following
// rows for as long as the bytes it skips between them stay no more than the
// bytes of the windows it holds, plus a few KiB for each window joined; a
// visit that outruns its window is read on from where it stopped. So rows
// far apart cost one read a visit and a decode copies about twice the file
// however many visits its rows take, while rows close together share reads
// and a decode copies about the file once a pass. Memory is
// 8·csvMaxBlock·servers bytes plus the stripe regardless of how many intervals
// the file holds; the matrix itself never exists in memory.

// csvMaxFieldLen bounds a single CSV field; the longest float64 the writer
// emits is ~24 bytes, so anything past this is a corrupt or hostile file.
const csvMaxFieldLen = 64

// csvVisitBytes is about how many bytes of its row one visit reads: a
// visit decodes as many consecutive fields as that holds at the file's mean
// field length, from csvMinBlock to csvMaxBlock, into a staging block of
// that many columns of float64s. Drastic traces (~17-byte fields) take 32
// columns (3.2 MB at 12.5k servers), whole-percent imports (~5-byte fields)
// 80 (8 MB).
const (
	csvVisitBytes = 512
	csvMinBlock   = 32
	csvMaxBlock   = 80
)

// csvFirstBlock is how many fields the first row visit decodes after the
// server id. The first column waits for every row's first visit, so a
// narrow first block keeps the work before it small.
const csvFirstBlock = 16

// csvIndexChunk is the index pass's read size, and the read stripe's.
const csvIndexChunk = 64 << 10

// csvJoinGap is how many skipped bytes a read may take on for each row
// visit it joins, beyond the bytes of the visits it holds. From the page
// cache a pread costs about 1.2 µs plus 0.05 ns a byte (2-CPU x86-64 VM),
// so one read saved pays for copying ~20 KB: joining visits 4 KiB apart
// copies less than the reads it saves cost.
const csvJoinGap = 4 << 10

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
	// stripe holds the file bytes [base, base+len(stripe)) of the last
	// read, and block the staged columns, column-major: block[k*servers+r]
	// is row r's value at interval blockStart+k. Both are allocated by the
	// first NextColumn, so opening a file only to read its Meta costs the
	// index; stripeSize is the stripe's capacity until then.
	stripe     []byte
	stripeSize int
	base       int64
	block      []float64
	width      int // fields a visit decodes after the first
	next       int
	// Columns [blockStart, blockEnd) are staged. When err is set, it is the
	// decode error of interval blockEnd, returned once that interval is due.
	blockStart, blockEnd int
	err                  error
	closer               io.Closer
}

// csvCursor walks one data row: the file bytes [off, end) are still unread.
type csvCursor struct {
	off, end int64
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
	return newCSVSource(ra, size, csvIndexChunk)
}

// newCSVSource is NewCSVSource with a read stripe of stripe bytes, raised
// to csvMaxFieldLen+1, one field and its comma, if smaller.
func newCSVSource(ra io.ReaderAt, size int64, stripe int) (*CSVSource, error) {
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
	// A read never reaches past the file, so a stripe larger than the file
	// is never filled.
	stripe = int(min(int64(max(stripe, csvMaxFieldLen+1)), size))
	field := max(1, size/(int64(meta.Servers)*int64(meta.Intervals+1)))
	width := int(min(max(csvVisitBytes/field, csvMinBlock), csvMaxBlock))
	return &CSVSource{meta: meta, ra: ra, rows: idx.rows, stripeSize: stripe, width: width}, nil
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
// to width consecutive fields, and the first fill consumes every row's
// server id and csvFirstBlock fields. A decode error ends the staged run just before its
// interval, so the columns ahead of it are still delivered. The error kept
// is the one a column-at-a-time reader would meet first: any server id
// error, else the lowest interval, then lowest row — later rows only decode
// the fields before the earliest failing interval seen so far. A read error
// counts as the error of the first field the failed read was to bring in.
//
// Each field is parsed straight out of the stripe. The fast path takes a
// plain decimal of at most csvMaxFieldLen bytes that a comma or the row's
// end closes; any other field is split off at its comma and checked by
// nextField, then parsed by parseFloat, which produces every error.
func (s *CSVSource) fill() {
	n := s.meta.Servers
	ids := s.stripe == nil
	if ids {
		s.stripe = make([]byte, 0, s.stripeSize)
		s.block = make([]float64, min(s.width, s.meta.Intervals)*n)
	}
	start := s.next
	width := min(s.width, s.meta.Intervals-start)
	// A visit takes fields of the left fields still in every row.
	fields, left := width, s.meta.Intervals-start
	if ids {
		width = min(csvFirstBlock, s.meta.Intervals)
		fields, left = width+1, left+1
	}
	for r := range s.rows {
		if width == 0 && !ids {
			break
		}
		c := &s.rows[r]
		// Before each field, the window [p, lim) of the stripe holds the
		// row's next bytes: at least csvMaxFieldLen+1 of them, or all of
		// them up to the row's end (or the file's, if it shrank since the
		// index), so no field runs past it, and a field of at most
		// csvMaxFieldLen bytes that reaches lim ends the row.
		p, lim, err := s.load(r, fields, left)
		if ids {
			// A server id error wins over every interval error; no column
			// has been staged yet.
			var m int
			if err == nil {
				_, m, err = nextField(s.stripe[p:lim])
			}
			if err != nil {
				s.err = fmt.Errorf("trace: row %d server id: %w", r, err)
				return
			}
			p += m
		}
		for k := 0; k < width; k++ {
			if err == nil && lim-p <= csvMaxFieldLen && s.base+int64(lim) < c.end {
				// The window ran out before the visit did: load the rest
				// of the visit from here.
				c.off = s.base + int64(p)
				p, lim, err = s.load(r, width-k, s.meta.Intervals-start-k)
			}
			var v float64
			m := 0
			if err == nil {
				b := s.stripe[p:lim]
				var ok bool
				v, m, ok = parseDecimalPrefix(b)
				if ok && m <= csvMaxFieldLen && (m == len(b) || b[m] == ',') {
					m = min(m+1, len(b)) // and the comma
				} else {
					var f []byte
					if f, m, err = nextField(b); err == nil {
						v, err = parseFloat(f)
					}
				}
			}
			if err != nil {
				width = k
				s.err = fmt.Errorf("trace: row %d interval %d: %w", r, start+k, err)
				break
			}
			s.block[k*n+r] = v
			p += m
		}
		c.off = s.base + int64(p)
	}
	s.blockStart, s.blockEnd = start, start+width
}

// load returns the window [p, lim) of the stripe that holds row r's bytes
// from its cursor on, reading them first when the stripe does not reach the
// end of a visit of fields fields, left fields before the row's end. One
// read then fills the stripe from the row's cursor on and over the same
// visits of the following rows, for as long as they fit and the bytes it
// skips between them stay no more than the bytes of the visits it holds
// plus csvJoinGap for each visit it joins.
// When that read fails, the row's own visit alone is read again, so an
// error is met by the row whose bytes it is in. A file shorter than the
// index saw ends every row at its new end, as a section reader would.
func (s *CSVSource) load(r, fields, left int) (p, lim int, err error) {
	c := &s.rows[r]
	end := c.off + min(c.visit(fields, left), int64(cap(s.stripe)))
	if c.off < s.base || end > s.base+int64(len(s.stripe)) {
		if err := s.read(c.off, end, s.rows[r+1:], fields, left); err != nil {
			return 0, 0, err
		}
	}
	return int(c.off - s.base), int(min(c.end, s.base+int64(len(s.stripe))) - s.base), nil
}

// read fills the stripe from file offset off on, up to at least own and
// over the grouped visits of rows, as load describes.
func (s *CSVSource) read(off, own int64, rows []csvCursor, fields, left int) error {
	end := own
	used, skipped := own-off, int64(0)
	for _, d := range rows {
		v := d.visit(fields, left)
		e := d.off + v
		skipped += d.off - end
		used += v + csvJoinGap
		if e > off+int64(cap(s.stripe)) || skipped > used {
			break
		}
		end = e
	}
	for {
		want := end - off
		n, err := s.ra.ReadAt(s.stripe[:want], off)
		s.base, s.stripe = off, s.stripe[:n]
		if int64(n) == want || err == nil || err == io.EOF {
			return nil
		}
		if end == own {
			return err
		}
		end = own
	}
}

// visit estimates the bytes a visit of fields fields reads from the row,
// left fields before its end: a quarter more than the average of the fields
// left for each, plus one field of csvMaxFieldLen bytes and its comma, but
// never more than that maximal field for each nor past the row's end. A
// visit whose fields run longer than that is read in more than one load:
// 0.5–5 % of the visits of the BenchmarkCSVSource traces are.
func (c *csvCursor) visit(fields, left int) int64 {
	rest := c.end - c.off
	return min(rest, int64(fields)*(csvMaxFieldLen+1), int64(fields)*rest*5/(int64(left)*4)+csvMaxFieldLen+1)
}

// nextField splits the row's next comma-delimited field off b, the row's
// unread bytes in the stripe, and returns it with the bytes it consumed. It
// looks at csvMaxFieldLen+1 bytes at most: a longer field fails checkField.
// The last field of a row ends at the row's end instead of a comma.
func nextField(b []byte) ([]byte, int, error) {
	if len(b) == 0 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	head := b[:min(len(b), csvMaxFieldLen+1)]
	if i := bytes.IndexByte(head, ','); i >= 0 {
		f, err := checkField(head[:i])
		return f, i + 1, err
	}
	f, err := checkField(head)
	return f, len(head), err
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
