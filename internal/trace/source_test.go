package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// drainSource pulls every column of src and returns them interval-major.
func drainSource(t *testing.T, src Source) [][]float64 {
	t.Helper()
	m := src.Meta()
	var cols [][]float64
	col := make([]float64, m.Servers)
	for {
		i, err := src.NextColumn(col)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextColumn: %v", err)
		}
		if i != len(cols) {
			t.Fatalf("interval %d delivered out of order (want %d)", i, len(cols))
		}
		cols = append(cols, append([]float64(nil), col...))
	}
	if len(cols) != m.Intervals {
		t.Fatalf("source delivered %d columns, meta says %d", len(cols), m.Intervals)
	}
	return cols
}

// requireColumnsEqualTrace asserts the streamed columns match the dense
// matrix bit for bit.
func requireColumnsEqualTrace(t *testing.T, cols [][]float64, tr *Trace) {
	t.Helper()
	if len(cols) != tr.Intervals() {
		t.Fatalf("got %d columns, trace has %d intervals", len(cols), tr.Intervals())
	}
	for i, col := range cols {
		for s := range col {
			if col[s] != tr.U[s][i] {
				t.Fatalf("cell (s=%d, i=%d): streamed %v, dense %v", s, i, col[s], tr.U[s][i])
			}
		}
	}
}

func TestGeneratorSourceMatchesGenerate(t *testing.T) {
	for _, cfg := range []GeneratorConfig{
		DrasticConfig(17), IrregularConfig(17), CommonConfig(17),
	} {
		tr, err := Generate(cfg, 42)
		if err != nil {
			t.Fatalf("%s: Generate: %v", cfg.Class, err)
		}
		g, err := NewGeneratorSource(cfg, 42)
		if err != nil {
			t.Fatalf("%s: NewGeneratorSource: %v", cfg.Class, err)
		}
		if got, want := g.Meta().Intervals, tr.Intervals(); got != want {
			t.Fatalf("%s: meta intervals %d, trace %d", cfg.Class, got, want)
		}
		requireColumnsEqualTrace(t, drainSource(t, g), tr)
	}
}

func TestTraceSourceRoundTrip(t *testing.T) {
	tr, err := Generate(DrasticConfig(9), 7)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewTraceSource(tr)
	if err != nil {
		t.Fatal(err)
	}
	requireColumnsEqualTrace(t, drainSource(t, src), tr)

	// Seek back and re-read a column.
	if err := src.SeekInterval(3); err != nil {
		t.Fatal(err)
	}
	col := make([]float64, tr.Servers())
	i, err := src.NextColumn(col)
	if err != nil || i != 3 {
		t.Fatalf("after seek: interval %d err %v", i, err)
	}
	for s := range col {
		if col[s] != tr.U[s][3] {
			t.Fatalf("seeked column mismatch at server %d", s)
		}
	}
}

func TestMaterializeMatchesSource(t *testing.T) {
	g, err := NewGeneratorSource(CommonConfig(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Generate(CommonConfig(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := range tr.U {
		for i := range tr.U[s] {
			if tr.U[s][i] != want.U[s][i] {
				t.Fatalf("cell (%d,%d) differs", s, i)
			}
		}
	}
}

func TestCSVSourceMatchesReadCSV(t *testing.T) {
	tr, err := Generate(IrregularConfig(11), 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	dense, err := readCSVRef(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	m := src.Meta()
	if m.Name != dense.Name || m.Class != dense.Class || m.Interval != dense.Interval ||
		m.Servers != dense.Servers() || m.Intervals != dense.Intervals() {
		t.Fatalf("meta %+v does not match dense trace (%s/%s %dx%d %v)",
			m, dense.Name, dense.Class, dense.Servers(), dense.Intervals(), dense.Interval)
	}
	requireColumnsEqualTrace(t, drainSource(t, src), dense)
}

func TestCSVSourceHeaderless(t *testing.T) {
	data := []byte("0,0.5,0.25\n1,0.75,1\n")
	dense, err := readCSVRef(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if m := src.Meta(); m.Servers != 2 || m.Intervals != 2 || m.Interval != 5*time.Minute {
		t.Fatalf("headerless meta = %+v", m)
	}
	requireColumnsEqualTrace(t, drainSource(t, src), dense)
}

func TestCSVSourceCRLFAndNoTrailingNewline(t *testing.T) {
	data := []byte("0,0.5,0.25\r\n1,0.75,1")
	src, err := NewCSVSource(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	cols := drainSource(t, src)
	want := [][]float64{{0.5, 0.75}, {0.25, 1}}
	for i := range want {
		for s := range want[i] {
			if cols[i][s] != want[i][s] {
				t.Fatalf("cell (s=%d,i=%d) = %v, want %v", s, i, cols[i][s], want[i][s])
			}
		}
	}
}

func TestCSVSourceRejectsRaggedAndBadValues(t *testing.T) {
	if _, err := NewCSVSource(strings.NewReader("0,0.5\n1,0.2,0.3\n"), 16); err == nil {
		t.Fatal("ragged rows accepted")
	}
	src, err := NewCSVSource(strings.NewReader("0,1.5\n"), 6)
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, 1)
	if _, err := src.NextColumn(col); err == nil {
		t.Fatal("out-of-range utilization accepted")
	}
}

func TestLongFormatSourceMatchesReadLongFormat(t *testing.T) {
	o := AlibabaOptions()
	// Bucket-sorted observations with: jitter inside buckets, a machine
	// appearing late (leading gap → seeded carry), a mid-stream gap
	// (carry-forward), and multiple samples per bucket (averaging).
	input := "" +
		"m0,0,10\n" +
		"m0,60,30\n" + // same bucket as above: averaged
		"m1,250,40\n" +
		"m0,300,50\n" +
		"m1,320,60\n" +
		// bucket 2 missing entirely: carry-forward for both machines
		"m0,900,70\n" +
		"m2,910,80\n" // m2 first appears in bucket 3: leading buckets seeded
	dense, err := ReadLongFormat(strings.NewReader(input), o)
	if err != nil {
		t.Fatal(err)
	}
	open := func() (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(input)), nil
	}
	src, err := NewLongFormatSource(open, o)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	m := src.Meta()
	if m.Servers != dense.Servers() || m.Intervals != dense.Intervals() {
		t.Fatalf("meta %dx%d, dense %dx%d", m.Servers, m.Intervals, dense.Servers(), dense.Intervals())
	}
	requireColumnsEqualTrace(t, drainSource(t, src), dense)
}

func TestLongFormatSourceRejectsUnsorted(t *testing.T) {
	input := "m0,900,10\nm0,0,20\n"
	open := func() (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(input)), nil
	}
	src, err := NewLongFormatSource(open, AlibabaOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	col := make([]float64, src.Meta().Servers)
	for {
		if _, err = src.NextColumn(col); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrUnsortedLongFormat) {
		t.Fatalf("err = %v, want ErrUnsortedLongFormat", err)
	}
}

func TestNewRejectsOverflowAndAbsurdShapes(t *testing.T) {
	var shapeErr *ShapeError
	// servers*intervals wraps int64.
	if _, err := New("x", Common, math.MaxInt/2, 3, time.Minute); !errors.As(err, &shapeErr) {
		t.Fatalf("overflowing shape: err = %v, want *ShapeError", err)
	}
	// Product fits an int but exceeds MaxCells.
	if _, err := New("x", Common, 1<<16, 1<<16, time.Minute); !errors.As(err, &shapeErr) {
		t.Fatalf("absurd shape: err = %v, want *ShapeError", err)
	}
	// Non-positive axes are typed too.
	if _, err := New("x", Common, 0, 5, time.Minute); !errors.As(err, &shapeErr) {
		t.Fatalf("zero servers: err = %v, want *ShapeError", err)
	}
	// Sane shapes still work.
	if _, err := New("x", Common, 10, 10, time.Minute); err != nil {
		t.Fatalf("sane shape rejected: %v", err)
	}
}
