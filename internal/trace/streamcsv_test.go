package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// drainCSV opens raw as a CSVSource and pulls every column, interval-major,
// stopping at the first error.
func drainCSV(raw string) (Meta, [][]float64, error) {
	return drainCSVStripe(raw, csvIndexChunk)
}

// drainCSVStripe is drainCSV through a read stripe of stripe bytes.
func drainCSVStripe(raw string, stripe int) (Meta, [][]float64, error) {
	src, err := newCSVSource(strings.NewReader(raw), int64(len(raw)), stripe)
	if err != nil {
		return Meta{}, nil, err
	}
	return drainOpened(src)
}

// drainOpened pulls every column of an opened source, interval-major,
// stopping at the first error.
func drainOpened(src *CSVSource) (Meta, [][]float64, error) {
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
// runs a few rows past the first index chunk, and so past the stripe's
// capacity counted from row 0.
func straddleCSV(eol string, ok func(raw string) bool) string {
	var body strings.Builder
	for r := 0; body.Len() <= csvIndexChunk+4096; r++ {
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

// rowByte512Straddle is a two-row matrix whose last fields cross row byte
// 512.
var rowByte512Straddle = "0" + strings.Repeat(",0.5", 127) + ",0.25\n1" + strings.Repeat(",0.5", 127) + ",0.75\n"

// loadStraddle is a two-row matrix of 600 fields, every one 0.5 but row 1's
// field at interval k, which is f, and a stripe size that ends strictly
// inside that field when a load starts at row 1's first byte: row 1's first
// visit, which takes csvMaxBlock fields, does not fit one load, and the
// decoder must read the rest of it from the field on. Row 1's server id is
// csvMaxFieldLen bytes long, so the stripe is never cut below its floor.
// The sum of those fields is well under the row's estimated visit, so the
// stripe, not the estimate, ends the load.
func loadStraddle(k int, f string) (raw string, stripe int) {
	const intervals = 600
	row0 := "0" + strings.Repeat(",0.5", intervals)
	id := strings.Repeat("0", csvMaxFieldLen-1) + "1"
	row1 := id + strings.Repeat(",0.5", k) + "," + f + strings.Repeat(",0.5", intervals-k-1)
	return row0 + "\n" + row1 + "\n", len(id) + 4*k + len(",") + max(1, len(f)/2)
}

// loadStraddleEnds reports whether a stripe of stripe bytes, filled from
// row 1's first byte, ends strictly inside a field of raw.
func loadStraddleEnds(raw string, stripe int) bool {
	return midField(raw, strings.IndexByte(raw, '\n')+1+stripe)
}

// windowStraddle is a matrix whose rows open with a first visit of
// csvFirstBlock 16-byte fields, four times the row's average, so the
// decoder's estimate of a first visit can run out before the visit does,
// mid-field, and the rest of the visit is then read from where the window
// ended. A row's field at interval i < csvFirstBlock starts at byte
// 1 + 17·i + 1 of the row.
func windowStraddle() string {
	long := strings.Repeat(",0.12345678901234", csvFirstBlock)
	short := strings.Repeat(",0.5", 8*csvMaxBlock)
	return "0" + long + short + "\n1" + long + short + "\n2" + long + short + "\n"
}

// csvPasses is how many visits the decoder makes to each row of a file of
// the given number of intervals, width fields a visit after the first.
func csvPasses(intervals, width int) int {
	return 1 + (intervals-min(intervals, csvFirstBlock)+width-1)/width
}

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
		rowByte512Straddle,
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
	// pairs and inside the meta row, and must not change the index. It also
	// draws a read stripe between csvMaxFieldLen+1 and csvIndexChunk bytes,
	// which moves the stripe's end through the rows.
	for i, s := range csvSourceSeeds(f) {
		f.Add(s, uint16([]int{1, 2, 7, 64}[i%4]), uint16(i*977))
	}
	f.Fuzz(func(t *testing.T, raw string, chunk, stripe uint16) {
		requireMatchesReadCSV(t, raw, csvMaxFieldLen+1+int(stripe)%(csvIndexChunk-csvMaxFieldLen))
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

// requireMatchesReadCSV drains raw through a read stripe of stripe bytes
// and holds the result to ReadCSV's, as FuzzCSVSourceMatchesReadCSV states
// it, and its error text to the default stripe's.
func requireMatchesReadCSV(t *testing.T, raw string, stripe int) {
	t.Helper()
	dense, denseErr := ReadCSV(strings.NewReader(raw))
	m, cols, srcErr := drainCSVStripe(raw, stripe)
	if _, _, err := drainCSV(raw); fmt.Sprint(err) != fmt.Sprint(srcErr) {
		t.Fatalf("%.40q, stripe %d: error %v, default stripe %v", raw, stripe, srcErr, err)
	}
	switch {
	case srcErr == nil && denseErr != nil:
		t.Fatalf("%.40q, stripe %d: CSVSource accepted an input ReadCSV rejects: %v", raw, stripe, denseErr)
	case srcErr != nil && denseErr == nil:
		if !strings.Contains(raw, `"`) && !errors.Is(srcErr, errCSVFieldTooLong) {
			t.Fatalf("%.40q, stripe %d: CSVSource rejected an input ReadCSV accepts: %v", raw, stripe, srcErr)
		}
	case srcErr == nil:
		want := Meta{Name: dense.Name, Class: dense.Class, Servers: dense.Servers(),
			Intervals: dense.Intervals(), Interval: dense.Interval}
		if m != want {
			t.Fatalf("%.40q, stripe %d: meta %+v, ReadCSV %+v", raw, stripe, m, want)
		}
		for i, col := range cols {
			for s, v := range col {
				if math.Float64bits(v) != math.Float64bits(dense.U[s][i]) {
					t.Fatalf("%.40q, stripe %d: cell (s=%d, i=%d): streamed %v, dense %v", raw, stripe, s, i, v, dense.U[s][i])
				}
			}
		}
	}
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
// read boundaries at their real sizes: a field across the first index chunk
// boundary, a CRLF pair split by it, fields across the end of the stripe
// when a load starts at row 0 and, through stripes cut to size, at row 1,
// inside row 1's first visit, and fields across the end of the window a
// visit's estimate reads. A visit that crosses the end of its load is read
// again from the field it stopped at.
func TestCSVSourceStraddlingFields(t *testing.T) {
	type input struct {
		raw    string
		stripe int
	}
	cases := []input{
		{rowByte512Straddle, csvIndexChunk},
		{straddleCSV("\n", func(raw string) bool {
			row0 := strings.IndexFunc(raw, func(c rune) bool { return c != '\n' })
			return midField(raw, row0+csvIndexChunk) && midField(raw, csvIndexChunk)
		}), csvIndexChunk},
		{straddleCSV("\r\n", func(raw string) bool { return raw[csvIndexChunk-1:csvIndexChunk+1] == "\r\n" }), csvIndexChunk},
		{windowStraddle(), csvIndexChunk},
	}
	for _, k := range []int{0, 1, csvMaxBlock / 2, csvMaxBlock - 1} {
		raw, stripe := loadStraddle(k, "0.123456789")
		cases = append(cases, input{raw, stripe})
	}
	for _, tc := range cases {
		if tc.stripe != csvIndexChunk && !loadStraddleEnds(tc.raw, tc.stripe) {
			t.Fatalf("%.40q: a %d-byte stripe ends outside a field", tc.raw, tc.stripe)
		}
		dense, err := ReadCSV(strings.NewReader(tc.raw))
		if err != nil {
			t.Fatal(err)
		}
		_, cols, err := drainCSVStripe(tc.raw, tc.stripe)
		if err != nil {
			t.Fatal(err)
		}
		requireColumnsEqualTrace(t, cols, dense)
	}
	if !midField(rowByte512Straddle, 512) {
		t.Fatal("rowByte512Straddle has no field across row byte 512")
	}
	// The first window of a windowStraddle row ends inside a field, so a
	// read starts at a field inside some row's first window (row 2's: the
	// read for row 0 joins the rows after it and holds rows 0 and 1 whole).
	raw := windowStraddle()
	row := strings.IndexByte(raw, '\n')
	window := (&csvCursor{end: int64(row)}).visit(csvFirstBlock+1, csvFirstBlock+8*csvMaxBlock+1)
	if !midField(raw, int(window)) {
		t.Fatalf("windowStraddle's first window ends outside a field, at %d", window)
	}
	ra := &countingReaderAt{r: strings.NewReader(raw)}
	src, err := NewCSVSource(ra, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	ra.offs = nil
	if _, _, err := drainOpened(src); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(ra.offs, func(off int64) bool {
		in := off - int64(strings.LastIndexByte(raw[:off], '\n')+1)
		return in > 0 && in < window && raw[off-1] == ','
	}) {
		t.Errorf("windowStraddle read at %v, want a read from a field inside a row's first window", ra.offs)
	}
}

func TestCSVSourceFieldCaps(t *testing.T) {
	capField := "0." + strings.Repeat("1", 62)
	for _, raw := range []string{
		// A field of exactly the cap, across row byte 512.
		"0" + strings.Repeat(",0.5", 124) + "," + capField + "\n",
		// The same field as the last of a row, and as a server id.
		"0," + capField + "\n",
		capField[2:] + "00,0.5\n",
	} {
		if _, _, err := drainCSV(raw); err != nil {
			t.Errorf("%.40q: %v", raw, err)
		}
	}
	// A field of exactly the cap across the stripe's end.
	raw, stripe := loadStraddle(csvMaxBlock-1, capField)
	if !loadStraddleEnds(raw, stripe) {
		t.Fatalf("a %d-byte stripe ends outside a field", stripe)
	}
	if _, _, err := drainCSVStripe(raw, stripe); err != nil {
		t.Errorf("cap-sized field across the stripe's end: %v", err)
	}
	type fieldCase struct {
		raw    string
		stripe int
		want   string
	}
	cases := []fieldCase{
		{"0,0." + strings.Repeat("1", 70) + "\n", csvIndexChunk, "trace: row 0 interval 0: field exceeds 64 bytes"},
		// Over-long and quoted fields across row byte 512.
		{"0" + strings.Repeat(",0.5", 124) + ",0." + strings.Repeat("1", 70) + "\n", csvIndexChunk, "trace: row 0 interval 124: field exceeds 64 bytes"},
		{"0" + strings.Repeat(",0.5", 124) + ",0." + strings.Repeat("1", 62) + "\"\n", csvIndexChunk, "trace: row 0 interval 124: quoted fields are not supported by the streaming reader"},
		{"0,0." + strings.Repeat("1", 62) + "\"\n", csvIndexChunk, "trace: row 0 interval 0: quoted fields are not supported by the streaming reader"},
		// A quote past the first csvMaxFieldLen+1 bytes is not looked for.
		{"0,0." + strings.Repeat("1", 63) + "\"\n", csvIndexChunk, "trace: row 0 interval 0: field exceeds 64 bytes"},
		{"0,0.5\"\n", csvIndexChunk, "trace: row 0 interval 0: quoted fields are not supported by the streaming reader"},
		{"0\",0.5\n", csvIndexChunk, "trace: row 0 server id: quoted fields are not supported by the streaming reader"},
		{"0,0.5,\n", csvIndexChunk, "trace: row 0 interval 1: unexpected EOF"},
		{"0,,0.5\n", csvIndexChunk, `trace: row 0 interval 0: strconv.ParseFloat: parsing "": invalid syntax`},
		// A decimal the fast path would take but for its length.
		{"0," + strings.Repeat("0", 63) + ".5\n", csvIndexChunk, "trace: row 0 interval 0: field exceeds 64 bytes"},
		{"0," + strings.Repeat("0", 63) + ".5,0.5\n", csvIndexChunk, "trace: row 0 interval 0: field exceeds 64 bytes"},
	}
	// The same faults across the stripe's end.
	for _, f := range []struct{ field, want string }{
		{"0." + strings.Repeat("1", 70), "field exceeds 64 bytes"},
		{"0." + strings.Repeat("1", 62) + `"`, "quoted fields are not supported by the streaming reader"},
		{strings.Repeat("0", 63) + ".5", "field exceeds 64 bytes"},
		{"0.5x", `strconv.ParseFloat: parsing "0.5x": invalid syntax`},
	} {
		raw, stripe := loadStraddle(csvMaxBlock/2, f.field)
		cases = append(cases, fieldCase{raw, stripe, fmt.Sprintf("trace: row 1 interval %d: %s", csvMaxBlock/2, f.want)})
	}
	for _, tc := range cases {
		_, _, err := drainCSVStripe(tc.raw, tc.stripe)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%.40q (stripe %d): error %v, want %s", tc.raw, tc.stripe, err, tc.want)
		}
	}
}

// stripeSizes are the read stripes the sweep decodes through: the smallest
// one, which holds one maximal field and its comma, sizes around it and
// around a visit of maximal fields, and a few between those and the
// default.
var stripeSizes = []int{csvMaxFieldLen + 1, csvMaxFieldLen + 2, 2*csvMaxFieldLen + 1, 1000, 4096, (csvMaxBlock + 1) * (csvMaxFieldLen + 1), 10007, csvIndexChunk - 1, csvIndexChunk}

// TestCSVSourceStripeSweep decodes the differential fuzzer's seed inputs,
// a generated trace, matrices of cap-sized fields, which fill a visit's
// byte bound exactly, and inputs whose fields cross the stripe's end, through
// stripes of every size in stripeSizes, each held to
// requireMatchesReadCSV.
func TestCSVSourceStripeSweep(t *testing.T) {
	inputs := csvSourceSeeds(t)
	tr, err := Generate(DrasticConfig(40), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, buf.String())
	// Fields of exactly csvMaxFieldLen bytes, 0.5 and 0.25 behind leading
	// zeros, in rows of a few visits.
	capRow := strings.Repeat(","+strings.Repeat("0", 61)+"0.5,"+strings.Repeat("0", 60)+"0.25", csvMaxBlock+3)
	inputs = append(inputs, "0"+capRow+"\n1"+capRow+"\n2"+capRow+"\n", "7"+capRow)
	for _, f := range []string{"0.25", "0." + strings.Repeat("1", 62), "0." + strings.Repeat("1", 70), "x"} {
		raw, _ := loadStraddle(csvMaxBlock-1, f)
		inputs = append(inputs, raw)
	}
	for _, raw := range inputs {
		for _, stripe := range stripeSizes {
			requireMatchesReadCSV(t, raw, stripe)
		}
	}
}

// countingReaderAt counts the reads made through it and the bytes they
// return, and keeps their offsets.
type countingReaderAt struct {
	r            io.ReaderAt
	reads, bytes int
	offs         []int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.reads++
	c.bytes += n
	c.offs = append(c.offs, off)
	return n, err
}

// TestCSVSourceReadsPerLoad bounds the decoder's reads and the bytes they
// copy. A load reads a row's visit and the visits of the rows after it for
// as long as the bytes it skips between them stay no more than the bytes of
// the visits plus csvJoinGap for each visit joined. A visit's estimate is a
// quarter more than its fields' share of the row plus one maximal field,
// so the bytes read stay under 2·(5/4·size + (csvMaxFieldLen+1)·visits),
// plus csvJoinGap a visit where rows sit close enough to be joined: about
// twice the file where rows are far apart, rather than once per pass over
// it. Each visit costs at most one read and a few in a hundred a second.
// Where rows are joined, a read stops only when the next window does not
// fit, so it advances at least stripe − (longest row + widest window)
// bytes, and a pass takes at most ⌈size/that⌉+1 reads.
func TestCSVSourceReadsPerLoad(t *testing.T) {
	for _, tc := range []struct {
		name              string
		servers, interval int
		stripe            int
		percent           bool // whole-percent values, ~5-byte fields
		joined            bool // rows close enough to be joined
		shared            bool // and a stripe wide enough to join many rows
		width             int  // fields a visit decodes after the first
	}{
		{"short rows", 200, 144, csvIndexChunk, false, true, true, csvMinBlock},
		{"short rows, small stripe", 200, 144, 4096, false, true, false, csvMinBlock},
		{"whole percents", 20, 2304, csvIndexChunk, true, false, false, csvMaxBlock},
		{"long rows", 6, 2000, csvIndexChunk, false, false, false, csvMinBlock},
		{"long rows, small stripe", 6, 2000, (csvMaxBlock + 1) * (csvMaxFieldLen + 1), false, false, false, csvMinBlock},
	} {
		cfg := DrasticConfig(tc.servers)
		cfg.Horizon = time.Duration(tc.interval) * cfg.Interval
		tr, err := Generate(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tc.percent {
			for _, row := range tr.U {
				for i, u := range row {
					row[i] = math.Round(u*100) * AlibabaOptions().UtilScale
				}
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		ra := &countingReaderAt{r: bytes.NewReader(buf.Bytes())}
		src, err := newCSVSource(ra, int64(buf.Len()), tc.stripe)
		if err != nil {
			t.Fatal(err)
		}
		ra.reads, ra.bytes = 0, 0
		if _, _, err := drainOpened(src); err != nil {
			t.Fatal(err)
		}
		if tc.width != src.width {
			t.Errorf("%s: visits of %d fields, want %d", tc.name, src.width, tc.width)
		}
		passes := csvPasses(tc.interval, src.width)
		visits := passes * tc.servers
		want := 2 * (5*buf.Len()/4 + (csvMaxFieldLen+1)*visits)
		if tc.joined {
			want += csvJoinGap * visits
		}
		if ra.bytes > want {
			t.Errorf("%s: %d bytes read from a %d-byte file in %d passes, want at most %d", tc.name, ra.bytes, buf.Len(), passes, want)
		}
		want = visits + visits/20
		if tc.shared {
			longest := 0
			for _, line := range bytes.Split(buf.Bytes(), []byte{'\n'}) {
				longest = max(longest, len(line))
			}
			adv := tc.stripe - longest - (csvMaxBlock+1)*(csvMaxFieldLen+1)
			want = passes * ((buf.Len()+adv-1)/adv + 1)
		}
		if ra.reads > want {
			t.Errorf("%s: %d reads for %d row visits, want at most %d", tc.name, ra.reads, visits, want)
		}
	}
}

// shrunkReaderAt serves data as a file of size bytes: reads past size come
// back short, with io.EOF.
type shrunkReaderAt struct {
	data string
	size int64
}

func (s *shrunkReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= s.size {
		return 0, io.EOF
	}
	n := copy(p, s.data[off:s.size])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// TestCSVSourceFileShrinks truncates the file between the index and the
// decode: a row that ends early decodes the fields it still has — a field
// cut short included, as a shorter number — and then fails at its first
// missing field, with the error a column-at-a-time reader would meet first.
// A row that loses its server id fails before any column is delivered.
func TestCSVSourceFileShrinks(t *testing.T) {
	const servers, intervals = 4, 80
	var b strings.Builder
	for r := 0; r < servers; r++ {
		fmt.Fprintf(&b, "%d", 100+r)
		for i := 0; i < intervals; i++ {
			fmt.Fprintf(&b, ",0.%05d", (r*intervals+i)*7919%100000)
		}
		b.WriteByte('\n')
	}
	raw := b.String()
	row := len(raw) / servers // every row has the same length
	// field is the file offset of row r's field at interval i.
	field := func(r, i int) int { return r*row + len("100,") + i*len("0.12345,") }
	for _, tc := range []struct {
		name string
		size int
		want string
		cols int
		last float64 // row 3's value in the last column delivered
	}{
		{"mid-field", field(3, 50) + 3, "trace: row 3 interval 51: unexpected EOF", 51, 0.9},
		{"after a comma", field(3, 50) + 1, "trace: row 3 interval 51: unexpected EOF", 51, 0},
		{"one digit short", field(3, 21) - 2, "trace: row 3 interval 21: unexpected EOF", 21, 0.5894},
		{"at a row start", 3 * row, "trace: row 3 server id: unexpected EOF", 0, 0},
		{"in an earlier row", field(2, 50) + 3, "trace: row 3 server id: unexpected EOF", 0, 0},
		{"inside a server id", 3*row + 2, "trace: row 3 interval 0: unexpected EOF", 0, 0},
		{"empty", 0, "trace: row 0 server id: unexpected EOF", 0, 0},
		{"inside the last value", len(raw) - 3, "EOF", intervals, 0.261},
		{"at the newline", len(raw) - 1, "EOF", intervals, 0.26161},
	} {
		ra := &shrunkReaderAt{data: raw, size: int64(len(raw))}
		src, err := NewCSVSource(ra, int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		ra.size = int64(tc.size)
		_, cols, err := drainOpened(src)
		if err == nil {
			err = io.EOF
		}
		if err.Error() != tc.want || len(cols) != tc.cols {
			t.Errorf("%s: error %v after %d columns, want %s after %d", tc.name, err, len(cols), tc.want, tc.cols)
			continue
		}
		if tc.cols > 0 && cols[tc.cols-1][3] != tc.last {
			t.Errorf("%s: row 3 reads %v in the last column, want %v", tc.name, cols[tc.cols-1][3], tc.last)
		}
	}
}

// failingReaderAt fails every read that reaches byte at, once armed, as a
// disk error under one block of the file would.
type failingReaderAt struct {
	r     io.ReaderAt
	at    int64
	armed bool
}

var errDiskRead = errors.New("disk read failed")

func (f *failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if f.armed && off <= f.at && f.at < off+int64(len(p)) {
		return 0, errDiskRead
	}
	return f.r.ReadAt(p, off)
}

// TestCSVSourceReadError pins how a read error is reported: as the error
// of the first field the failed read was to bring in, in the row whose
// bytes it was reading. A load that also held later rows' visits is read
// again without them, so a bad byte in row 1 never fails row 0, and the
// columns before the failed field are delivered first.
func TestCSVSourceReadError(t *testing.T) {
	// Three rows of 200 fields "0.5": a row is 801 bytes and row r's field
	// at interval i starts at byte 802·r + 2 + 4·i. A window of 80 fields
	// reaches about 465 bytes past its cursor, one of 16 about 150.
	row := "0" + strings.Repeat(",0.5", 200) + "\n"
	short := row + row + row
	field := func(r, i int) int64 { return int64(802*r + 2 + 4*i) }
	// windowStraddle's first window of row 1 ends 156 bytes into the row,
	// inside its field at interval 9; the visit is read on from interval
	// 6, the first field to start csvMaxFieldLen bytes or less before that
	// end, and that read reaches row byte 200. Reads that join row 1 to the
	// rows around it fail too, and are retried without them.
	straddle := windowStraddle()
	row1 := int64(strings.IndexByte(straddle, '\n') + 1)
	for _, tc := range []struct {
		name string
		raw  string
		at   int64
		want string
		cols int
	}{
		// The first window of row 1 reaches interval ~36: the read that
		// fails is the one that brings in the server id.
		{"first visit", short, field(1, 10), "trace: row 1 server id: disk read failed", 0},
		// The second window reaches interval ~132. Row 0's load in that
		// pass would hold it too; without it, row 0 decodes, and row 1's
		// own load fails at the visit's first field.
		{"second visit", short, field(1, 100), "trace: row 1 interval 16: disk read failed", csvFirstBlock},
		{"third visit", short, field(1, 150), "trace: row 1 interval 96: disk read failed", csvFirstBlock + csvMaxBlock},
		{"last field", short, field(2, 199), "trace: row 2 interval 96: disk read failed", csvFirstBlock + csvMaxBlock},
		{"mid-visit reload", straddle, row1 + 200, "trace: row 1 interval 6: disk read failed", 6},
	} {
		ra := &failingReaderAt{r: strings.NewReader(tc.raw), at: tc.at}
		src, err := NewCSVSource(ra, int64(len(tc.raw)))
		if err != nil {
			t.Fatal(err)
		}
		ra.armed = true
		_, cols, err := drainOpened(src)
		if err == nil || err.Error() != tc.want || len(cols) != tc.cols {
			t.Errorf("%s: error %v after %d columns, want %s after %d", tc.name, err, len(cols), tc.want, tc.cols)
			continue
		}
		dense, err := ReadCSV(strings.NewReader(tc.raw))
		if err != nil {
			t.Fatal(err)
		}
		for i, col := range cols {
			for r, v := range col {
				if v != dense.U[r][i] {
					t.Fatalf("%s: cell (s=%d, i=%d): %v, want %v", tc.name, r, i, v, dense.U[r][i])
				}
			}
		}
	}
}

// TestCSVSourceDeferredErrorTiming pins when a decode error surfaces: a
// bad field at interval k — inside a staged block or on either side of a
// block boundary — still lets columns 0..k-1 through first, then fails with
// the column-at-a-time message. Among bad fields, the lowest interval wins,
// then the lowest row.
func TestCSVSourceDeferredErrorTiming(t *testing.T) {
	const servers, intervals = 3, 3*csvMaxBlock + 2
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
		{"first block end", [][2]int{{2, csvFirstBlock - 1}}, 2, csvFirstBlock - 1},
		{"second block start", [][2]int{{0, csvFirstBlock}}, 0, csvFirstBlock},
		{"second block end", [][2]int{{2, csvFirstBlock + csvMaxBlock - 1}}, 2, csvFirstBlock + csvMaxBlock - 1},
		{"third block start", [][2]int{{0, csvFirstBlock + csvMaxBlock}}, 0, csvFirstBlock + csvMaxBlock},
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
	const servers, intervals, runs = 32, 8 * csvMaxBlock, 100
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
	if _, err := src.NextColumn(col); err != nil { // allocates the stripe and block
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
