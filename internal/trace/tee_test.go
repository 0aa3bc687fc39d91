package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// countingSource counts the NextColumn and Close calls that reach the
// wrapped source.
type countingSource struct {
	Source
	mu            sync.Mutex
	calls, closes int
}

func (c *countingSource) NextColumn(dst []float64) (int, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Source.NextColumn(dst)
}

func (c *countingSource) Close() error {
	c.mu.Lock()
	c.closes++
	c.mu.Unlock()
	return nil
}

// teeCSV renders a generated trace as CSV bytes, with the value at
// (server 0, interval bad) replaced by "x" when bad >= 0.
func teeCSV(t *testing.T, cfg GeneratorConfig, seed int64, bad int) []byte {
	t.Helper()
	tr, err := Generate(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if bad < 0 {
		return buf.Bytes()
	}
	lines := strings.Split(buf.String(), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "0,") {
			f := strings.Split(l, ",")
			f[1+bad] = "x"
			lines[i] = strings.Join(f, ",")
			break
		}
	}
	return []byte(strings.Join(lines, "\n"))
}

func openTeeCSV(t *testing.T, data []byte) Source {
	t.Helper()
	src, err := NewCSVSource(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// readAll drains one branch until its first error, yielding every `every`
// columns so concurrent readers interleave at different speeds.
func readAll(src Source, every int) (cols [][]float64, err error) {
	col := make([]float64, src.Meta().Servers)
	for {
		i, err := src.NextColumn(col)
		if err != nil {
			return cols, err
		}
		if i != len(cols) {
			return cols, fmt.Errorf("branch delivered interval %d, want %d", i, len(cols))
		}
		cols = append(cols, append([]float64(nil), col...))
		if every > 0 && len(cols)%every == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		runtime.Gosched()
	}
}

// drainBranches reads every branch to its first error on its own goroutine,
// each at a different speed.
func drainBranches(t *testing.T, branches []Source) ([][][]float64, []error) {
	t.Helper()
	cols := make([][][]float64, len(branches))
	errs := make([]error, len(branches))
	var wg sync.WaitGroup
	for b, br := range branches {
		wg.Add(1)
		go func(b int, br Source) {
			defer wg.Done()
			cols[b], errs[b] = readAll(br, b)
		}(b, br)
	}
	wg.Wait()
	return cols, errs
}

// TestTeeMatchesSource pins every branch bit-identical to the source it
// shares, for generator and CSV sources, with the branches read on their own
// goroutines at different speeds.
func TestTeeMatchesSource(t *testing.T) {
	cfg := DrasticConfig(13)
	cfg.Horizon = 40 * cfg.Interval
	data := teeCSV(t, cfg, 7, -1)
	for _, tc := range []struct {
		name string
		open func() Source
	}{
		{"generator", func() Source {
			g, err := NewGeneratorSource(cfg, 7)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"csv", func() Source { return openTeeCSV(t, data) }},
	} {
		want := drainSource(t, tc.open())
		for _, n := range []int{2, 3, 5} {
			cols, errs := drainBranches(t, Tee(tc.open(), n))
			for b := range cols {
				if errs[b] != io.EOF {
					t.Fatalf("%s n=%d branch %d: %v, want io.EOF", tc.name, n, b, errs[b])
				}
				if len(cols[b]) != len(want) {
					t.Fatalf("%s n=%d branch %d: %d columns, want %d", tc.name, n, b, len(cols[b]), len(want))
				}
				for i := range want {
					for sv := range want[i] {
						if cols[b][i][sv] != want[i][sv] {
							t.Fatalf("%s n=%d branch %d: (s=%d, i=%d) = %v, want %v",
								tc.name, n, b, sv, i, cols[b][i][sv], want[i][sv])
						}
					}
				}
			}
		}
	}
}

// TestTeeDecodesOnce pins the shared decode: however many branches read,
// the source sees exactly Intervals+1 NextColumn calls (the +1 returns
// io.EOF, which then stays sticky without reaching the source again), and
// only the last branch's Close closes it.
func TestTeeDecodesOnce(t *testing.T) {
	g, err := NewGeneratorSource(CommonConfig(9), 3)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{Source: g}
	branches := Tee(src, 3)
	_, errs := drainBranches(t, branches)
	for b, err := range errs {
		if err != io.EOF {
			t.Fatalf("branch %d: %v, want io.EOF", b, err)
		}
		if _, err := branches[b].NextColumn(make([]float64, 9)); err != io.EOF {
			t.Fatalf("branch %d after EOF: %v, want io.EOF again", b, err)
		}
	}
	if want := g.Meta().Intervals + 1; src.calls != want {
		t.Errorf("source NextColumn called %d times, want %d", src.calls, want)
	}
	for b, br := range branches {
		if err := br.(io.Closer).Close(); err != nil {
			t.Fatal(err)
		}
		if want := 0; b == len(branches)-1 {
			want = 1
			if src.closes != want {
				t.Errorf("source closed %d times after the last branch, want %d", src.closes, want)
			}
		} else if src.closes != want {
			t.Errorf("source closed after branch %d of %d", b+1, len(branches))
		}
	}
	if err := branches[0].(io.Closer).Close(); err != nil || src.closes != 1 {
		t.Errorf("second Close: err %v, source closed %d times, want nil and 1", err, src.closes)
	}
}

// TestTeeErrorReachesEveryBranch pins error stickiness: a bad value at
// interval k reaches every branch only after columns 0..k-1, with the
// source's own error text.
func TestTeeErrorReachesEveryBranch(t *testing.T) {
	cfg := IrregularConfig(6)
	cfg.Horizon = 30 * cfg.Interval
	for _, k := range []int{0, 1, teeDepth, 17} {
		data := teeCSV(t, cfg, 11, k)
		_, err := readAll(openTeeCSV(t, data), 0)
		if err == nil || err == io.EOF {
			t.Fatalf("k=%d: unshared source returned %v, want a parse error", k, err)
		}
		cols, errs := drainBranches(t, Tee(openTeeCSV(t, data), 3))
		for b := range cols {
			if len(cols[b]) != k {
				t.Errorf("k=%d branch %d: %d columns before the error, want %d", k, b, len(cols[b]), k)
			}
			if errs[b] == nil || errs[b].Error() != err.Error() {
				t.Errorf("k=%d branch %d: error %v, want %v", k, b, errs[b], err)
			}
		}
	}
	// Errors from src pass through unwrapped.
	sentinel := errors.New("boom")
	branches := Tee(&failingSource{Source: mustGenerator(t), at: 2, err: sentinel}, 2)
	_, errs := drainBranches(t, branches)
	for b, err := range errs {
		if err != sentinel {
			t.Errorf("branch %d: %v, want the source's error", b, err)
		}
	}
}

// failingSource fails from its at-th NextColumn call on.
type failingSource struct {
	Source
	n, at int
	err   error
}

func (f *failingSource) NextColumn(dst []float64) (int, error) {
	if f.n >= f.at {
		return 0, f.err
	}
	f.n++
	return f.Source.NextColumn(dst)
}

func mustGenerator(t *testing.T) *GeneratorSource {
	t.Helper()
	g, err := NewGeneratorSource(CommonConfig(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTeeCloseDetaches pins that a closed branch never holds the others
// back: one branch stops reading mid-stream, far behind the ring depth, and
// its sibling still finishes once it closes.
func TestTeeCloseDetaches(t *testing.T) {
	g := mustGenerator(t)
	branches := Tee(g, 2)
	col := make([]float64, g.Meta().Servers)
	if _, err := branches[0].NextColumn(col); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		cols, err := readAll(branches[1], 0)
		if err == io.EOF && len(cols) != g.Meta().Intervals {
			err = fmt.Errorf("%d columns, want %d", len(cols), g.Meta().Intervals)
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("sibling finished (%v) while the slow branch was still open", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := branches[0].(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("sibling: %v, want io.EOF", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sibling stalled after the slow branch closed")
	}
	if _, err := branches[0].NextColumn(col); err == nil {
		t.Error("read from a closed branch succeeded")
	}
}

// TestTeeSingleIsIdentity pins the n == 1 case: no wrapper, no second path.
func TestTeeSingleIsIdentity(t *testing.T) {
	g := mustGenerator(t)
	if b := Tee(g, 1); len(b) != 1 || b[0] != Source(g) {
		t.Fatalf("Tee(src, 1) = %v, want [src]", b)
	}
}

// TestTeeNextColumnAllocs pins a branch's NextColumn at zero allocations
// per column, whether it decodes the column or copies it out of the ring.
func TestTeeNextColumnAllocs(t *testing.T) {
	cfg := CommonConfig(16)
	cfg.Horizon = 400 * cfg.Interval
	g, err := NewGeneratorSource(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	branches := Tee(g, 2)
	col := make([]float64, 16)
	allocs := testing.AllocsPerRun(100, func() {
		for _, b := range branches {
			if _, err := b.NextColumn(col); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a column through two branches allocates %v times, want 0", allocs)
	}
}
