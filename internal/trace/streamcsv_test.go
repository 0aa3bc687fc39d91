package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// drainCSV opens raw as a CSVSource and pulls every column, interval-major,
// stopping at the first error.
func drainCSV(raw string) (Meta, [][]float64, error) {
	src, err := NewCSVSource(strings.NewReader(raw), int64(len(raw)))
	if err != nil {
		return Meta{}, nil, err
	}
	m := src.Meta()
	var cols [][]float64
	col := make([]float64, m.Servers)
	for {
		i, err := src.NextColumn(col)
		if err == io.EOF {
			break
		}
		if err != nil {
			return m, cols, err
		}
		if i != len(cols) {
			return m, cols, fmt.Errorf("interval %d delivered out of order (want %d)", i, len(cols))
		}
		cols = append(cols, append([]float64(nil), col...))
	}
	if len(cols) != m.Intervals {
		return m, cols, fmt.Errorf("source delivered %d columns, meta says %d", len(cols), m.Intervals)
	}
	return m, cols, nil
}

// straddleCSV is a headerless matrix of fixed-width fields, with line ends
// eol, behind as many leading blank lines as it takes for ok to hold. It
// runs past the first index chunk.
func straddleCSV(eol string, ok func(raw string) bool) string {
	var body strings.Builder
	for r := 0; body.Len() <= csvIndexChunk+csvRowBufSize; r++ {
		fmt.Fprintf(&body, "%03d", r)
		for i := 0; i < 60; i++ {
			fmt.Fprintf(&body, ",0.%08d", (r*60+i)*7919%100000000)
		}
		body.WriteString(eol)
	}
	for pad := 0; ; pad++ {
		if raw := strings.Repeat("\n", pad) + body.String(); ok(raw) {
			return raw
		}
	}
}

// midField reports whether file offset off falls strictly inside a field.
func midField(raw string, off int) bool {
	return !strings.ContainsAny(raw[off-1:off+1], ",\r\n")
}

// refillStraddle is a two-row matrix whose last fields cross each row's
// first cursor refill, at row byte csvRowBufSize.
var refillStraddle = "0" + strings.Repeat(",0.5", 127) + ",0.25\n1" + strings.Repeat(",0.5", 127) + ",0.75\n"

// csvSourceSeeds are the differential fuzzer's seed inputs.
func csvSourceSeeds(t testing.TB) []string {
	tr, err := Generate(DrasticConfig(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	var canonical bytes.Buffer
	if err := tr.WriteCSV(&canonical); err != nil {
		t.Fatal(err)
	}
	return []string{
		canonical.String(),
		refillStraddle,
		// A blank CRLF line before the meta row.
		"\r\n#h2p-trace,x,common,5m0s\nserver,t0\n0,0.5\n",
		// A meta row longer than 4 KiB.
		"#h2p-trace," + strings.Repeat("n", 5000) + ",common,5m0s\nserver,t0\n0,0.5\n",
		// A meta row with a fifth field, and CR-only line ends, which make
		// the whole file one line.
		"#h2p-trace,x,common,5m0s,extra\nserver,t0\n0,0.5\n",
		"#h2p-trace,x,common,5m0s\rserver,t0\r0,0.5\r",
		// CRLF line ends, and no trailing newline.
		"#h2p-trace,x,stable,1h0m0s\r\nserver,t0,t1\r\n0,0.25,1\r\n1,0,0.5\r\n",
		"0,0.5,0.25\r\n1,0.75,1",
		"0,0.5,0.25\n\n\n1,0.75,1\r",
		// Headerless, and a headerless first row that only looks like a meta row.
		"0,0.1,0.2\n1,0.3,0.4\n",
		"#h2p-tracex,0.5\n",
		"#h2p-trace\r\r\n",
		// A column-label row whose width disagrees with the data rows.
		"#h2p-trace,x,common,5m0s\nserver\n0,0.5,0.25\n",
		// A field past the 64-byte cap, in a value and in a server id.
		"0,0." + strings.Repeat("1", 70) + "\n",
		strings.Repeat("7", 70) + ",0.5\n",
		// Quotes: a quoted field, a bare quote, and quotes in the header rows.
		"0,\"0.5\"\n",
		"0,0.5\"\n",
		"#h2p-trace,\"x\",common,5m0s\nserver,t0\n0,0.5\n",
		"#h2p-trace,x,common,5m0s\nserver,t\"0\n0,0.5\n",
		// Malformed: ragged, empty last field, bad value, out of range.
		"0,0.5\n1,0.2,0.3\n",
		"0,0.5,\n",
		"0,,0.5\n",
		"0,abc\n",
		"0,1.5\n",
		"",
		"#h2p-trace,broken\n",
	}
}

// FuzzCSVSourceMatchesReadCSV is the streaming decoder's differential
// fuzzer. Whatever CSVSource opens and drains, ReadCSV accepts too, with
// equal metadata and bit-identical columns; whatever ReadCSV rejects,
// CSVSource rejects as well. The streaming reader may reject what ReadCSV
// accepts in two documented cases only: the input holds a quote, or a field
// runs past csvMaxFieldLen bytes.
func FuzzCSVSourceMatchesReadCSV(f *testing.F) {
	// Besides the input, each case names an index chunk size: indexing in
	// chunks that small puts chunk boundaries inside fields, inside CRLF
	// pairs and inside the meta row, and must not change the index.
	for i, s := range csvSourceSeeds(f) {
		f.Add(s, uint16([]int{1, 2, 7, 64}[i%4]))
	}
	f.Fuzz(func(t *testing.T, raw string, chunk uint16) {
		dense, denseErr := ReadCSV(strings.NewReader(raw))
		m, cols, srcErr := drainCSV(raw)
		switch {
		case srcErr == nil && denseErr != nil:
			t.Fatalf("CSVSource accepted an input ReadCSV rejects: %v", denseErr)
		case srcErr != nil && denseErr == nil:
			if !strings.Contains(raw, `"`) && !errors.Is(srcErr, errCSVFieldTooLong) {
				t.Fatalf("CSVSource rejected an input ReadCSV accepts: %v", srcErr)
			}
		case srcErr == nil:
			want := Meta{Name: dense.Name, Class: dense.Class, Servers: dense.Servers(),
				Intervals: dense.Intervals(), Interval: dense.Interval}
			if m != want {
				t.Fatalf("meta %+v, ReadCSV %+v", m, want)
			}
			for i, col := range cols {
				for s, v := range col {
					if math.Float64bits(v) != math.Float64bits(dense.U[s][i]) {
						t.Fatalf("cell (s=%d, i=%d): streamed %v, dense %v", s, i, v, dense.U[s][i])
					}
				}
			}
		}
		if chunk == 0 {
			return
		}
		ref, refErr := indexCSV(strings.NewReader(raw), int64(len(raw)), csvIndexChunk)
		got, err := indexCSV(strings.NewReader(raw), int64(len(raw)), int(chunk))
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("index in %d-byte chunks: error %v, want %v", chunk, err, refErr)
		}
		if err == nil && fmt.Sprint(*got) != fmt.Sprint(*ref) {
			t.Fatalf("index in %d-byte chunks differs: %+v, want %+v", chunk, *got, *ref)
		}
	})
}

func TestCSVSourceBlankCRLFLineBeforeMeta(t *testing.T) {
	m, cols, err := drainCSV("\r\n#h2p-trace,x,common,5m0s\nserver,t0\n0,0.5\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "x" || m.Class != "common" || m.Servers != 1 || m.Intervals != 1 || cols[0][0] != 0.5 {
		t.Fatalf("meta %+v, columns %v", m, cols)
	}
}

func TestCSVSourceLongMetaRow(t *testing.T) {
	name := strings.Repeat("n", 5000)
	m, _, err := drainCSV("#h2p-trace," + name + ",common,5m0s\nserver,t0\n0,0.5\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != name || m.Interval != 5*time.Minute {
		t.Fatalf("meta row truncated: name of %d bytes, interval %v", len(m.Name), m.Interval)
	}
}

// farthestReaderAt records the furthest byte offset read through it.
type farthestReaderAt struct {
	r   io.ReaderAt
	end int64
}

func (f *farthestReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.r.ReadAt(p, off)
	f.end = max(f.end, off+int64(n))
	return n, err
}

// TestCSVSourceWideMetaRowBounded pins the index's memory on a meta row
// that never ends: with CR-only line ends the whole file is its first line,
// and it fails as soon as a fifth field shows, within the first chunk read.
func TestCSVSourceWideMetaRowBounded(t *testing.T) {
	raw := "#h2p-trace,x,common,5m0s\rserver,t0\r" + strings.Repeat("0,0.5\r", 1<<16)
	if _, err := ReadCSV(strings.NewReader(raw)); err == nil {
		t.Fatal("ReadCSV accepted a CR-only file")
	}
	ra := &farthestReaderAt{r: strings.NewReader(raw)}
	if _, err := NewCSVSource(ra, int64(len(raw))); err != errCSVMetaTooWide {
		t.Fatalf("error %v, want %v", err, errCSVMetaTooWide)
	}
	if ra.end > csvIndexChunk {
		t.Fatalf("index read %d bytes of a %d-byte file before failing, want at most one chunk", ra.end, len(raw))
	}
	if _, _, err := drainCSV("#h2p-trace,x,common,5m0s,extra\nserver,t0\n0,0.5\n"); err != errCSVMetaTooWide {
		t.Fatalf("five-field meta row: error %v, want %v", err, errCSVMetaTooWide)
	}
}

// TestCSVSourceStraddlingFields decodes fields that cross the decoder's
// read boundaries at their real sizes: a field across row 0's first cursor
// refill, one across the first index chunk boundary, and a CRLF pair split
// by that chunk boundary.
func TestCSVSourceStraddlingFields(t *testing.T) {
	for _, raw := range []string{
		refillStraddle,
		straddleCSV("\n", func(raw string) bool {
			row0 := strings.IndexFunc(raw, func(c rune) bool { return c != '\n' })
			return midField(raw, row0+csvRowBufSize) && midField(raw, csvIndexChunk)
		}),
		straddleCSV("\r\n", func(raw string) bool { return raw[csvIndexChunk-1:csvIndexChunk+1] == "\r\n" }),
	} {
		dense, err := ReadCSV(strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		_, cols, err := drainCSV(raw)
		if err != nil {
			t.Fatal(err)
		}
		requireColumnsEqualTrace(t, cols, dense)
	}
	if !midField(refillStraddle, csvRowBufSize) {
		t.Fatal("refillStraddle has no field across the first refill")
	}
}

func TestCSVSourceFieldCaps(t *testing.T) {
	// A field of exactly the cap, straddling a refill, is accepted.
	if _, _, err := drainCSV("0" + strings.Repeat(",0.5", 124) + ",0." + strings.Repeat("1", 62) + "\n"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ raw, want string }{
		{"0,0." + strings.Repeat("1", 70) + "\n", "trace: row 0 interval 0: field exceeds 64 bytes"},
		// Over-long fields that straddle row 0's first refill at byte 512.
		{"0" + strings.Repeat(",0.5", 124) + ",0." + strings.Repeat("1", 70) + "\n", "trace: row 0 interval 124: field exceeds 64 bytes"},
		{"0" + strings.Repeat(",0.5", 124) + ",0." + strings.Repeat("1", 62) + "\"\n", "trace: row 0 interval 124: quoted fields are not supported by the streaming reader"},
		{"0,0." + strings.Repeat("1", 62) + "\"\n", "trace: row 0 interval 0: quoted fields are not supported by the streaming reader"},
		{"0,0.5\"\n", "trace: row 0 interval 0: quoted fields are not supported by the streaming reader"},
		{"0\",0.5\n", "trace: row 0 server id: quoted fields are not supported by the streaming reader"},
		{"0,0.5,\n", "trace: row 0 interval 1: unexpected EOF"},
		{"0,,0.5\n", `trace: row 0 interval 0: strconv.ParseFloat: parsing "": invalid syntax`},
	} {
		_, _, err := drainCSV(tc.raw)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%.40q: error %v, want %s", tc.raw, err, tc.want)
		}
	}
}

// TestCSVSourceDeferredErrorTiming pins when a decode error surfaces: a
// bad field at interval k — inside a staged block or on either side of a
// block boundary — still lets columns 0..k-1 through first, then fails with
// the column-at-a-time message. Among bad fields, the lowest interval wins,
// then the lowest row.
func TestCSVSourceDeferredErrorTiming(t *testing.T) {
	const servers, intervals = 3, 3*csvBlock + 2
	build := func(bad map[[2]int]bool) string {
		var b strings.Builder
		for r := 0; r < servers; r++ {
			fmt.Fprintf(&b, "%d", r)
			for i := 0; i < intervals; i++ {
				if bad[[2]int{r, i}] {
					b.WriteString(",x")
				} else {
					fmt.Fprintf(&b, ",%g", float64(r*intervals+i)/1000)
				}
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, tc := range []struct {
		name    string
		bad     [][2]int // {row, interval}
		row, at int
	}{
		{"first", [][2]int{{1, 0}}, 1, 0},
		{"inside block", [][2]int{{1, 5}}, 1, 5},
		{"block end", [][2]int{{2, csvBlock - 1}}, 2, csvBlock - 1},
		{"block start", [][2]int{{0, csvBlock}}, 0, csvBlock},
		{"last", [][2]int{{2, intervals - 1}}, 2, intervals - 1},
		{"earlier interval on a later row", [][2]int{{0, 9}, {2, 3}}, 2, 3},
		{"same interval, lowest row", [][2]int{{2, 7}, {1, 7}}, 1, 7},
	} {
		bad := map[[2]int]bool{}
		for _, b := range tc.bad {
			bad[b] = true
		}
		_, cols, err := drainCSV(build(bad))
		want := fmt.Sprintf(`trace: row %d interval %d: strconv.ParseFloat: parsing "x": invalid syntax`, tc.row, tc.at)
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", tc.name, err, want)
			continue
		}
		if len(cols) != tc.at {
			t.Errorf("%s: %d columns delivered before the error, want %d", tc.name, len(cols), tc.at)
		}
		for i, col := range cols {
			for r, v := range col {
				if w := float64(r*intervals+i) / 1000; v != w {
					t.Fatalf("%s: cell (s=%d, i=%d) = %v, want %v", tc.name, r, i, v, w)
				}
			}
		}
	}
	// The error is sticky: asking again repeats it.
	src, err := NewCSVSource(strings.NewReader("0,0.5,x\n"), 8)
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, 1)
	if _, err := src.NextColumn(col); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if _, err := src.NextColumn(col); err == nil || !strings.Contains(err.Error(), "interval 1") {
			t.Fatalf("call %d: error %v, want the interval 1 parse error", k, err)
		}
	}
}

// TestCSVSourceNextColumnAllocs pins the steady-state decoder at zero heap
// allocations per column, block refills included.
func TestCSVSourceNextColumnAllocs(t *testing.T) {
	const servers, intervals, runs = 32, 8 * csvBlock, 100
	tr, err := New("allocs", Drastic, servers, intervals, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for s := range tr.U {
		for i := range tr.U[s] {
			tr.U[s][i] = math.Mod(float64(s*intervals+i)*0.6180339887498949, 1)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, servers)
	if _, err := src.NextColumn(col); err != nil { // allocates the slab and block
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := src.NextColumn(col); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NextColumn allocates %v times per column, want 0", allocs)
	}
}

// BenchmarkCSVSource times the streaming decoder on a generated 2k-server
// drastic CSV (12 h, 144 intervals): index is NewCSVSource alone, decode is
// draining every column of an opened source. MB/s counts file bytes and
// values/s the utilizations delivered.
func BenchmarkCSVSource(b *testing.B) {
	tr, err := Generate(DrasticConfig(2000), 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	open := func(b *testing.B) *CSVSource {
		src, err := NewCSVSource(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			b.Fatal(err)
		}
		return src
	}
	report := func(b *testing.B, values int) {
		s := b.Elapsed().Seconds()
		b.ReportMetric(float64(len(data))*float64(b.N)/s/1e6, "MB/s")
		if values > 0 {
			b.ReportMetric(float64(values)*float64(b.N)/s, "values/s")
		}
	}
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			open(b)
		}
		report(b, 0)
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		col := make([]float64, tr.Servers())
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			src := open(b)
			b.StartTimer()
			for {
				if _, err := src.NextColumn(col); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b, tr.Servers()*tr.Intervals())
	})
}
