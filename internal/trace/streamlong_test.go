package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// FuzzLongFormatSourceMatchesReadLongFormat is the streaming long-format
// reader's differential fuzzer: when LongFormatSource and ReadLongFormat both
// accept an input, the source's meta and every column it emits are
// bit-identical to the dense trace. They may disagree in two documented ways
// only: the source rejects input whose buckets go backwards with
// ErrUnsortedLongFormat, and it accepts shapes past MaxLongFormatCells,
// since it never holds the matrix.
func FuzzLongFormatSourceMatchesReadLongFormat(f *testing.F) {
	// FuzzReadLongFormat's corpus.
	f.Add("m1,0,50\nm1,310,60\nm2,0,10\nm2,300,20\nm1,900,70\n")
	f.Add("m42,-300,55\n")
	f.Add("m1,0,250\nm1,300,-10\n")
	f.Add("")
	f.Add("m1,NaN,50\n")
	f.Add("m1,+Inf,50\n")
	f.Add("m1,0,NaN\n")
	f.Add("m1,1e300,50\n")
	f.Add("m1,0\n")
	f.Add("m1,0,50,extra,fields\n")
	f.Add("\"quoted,id\",0,50\n")
	// Bucket order: jitter inside a bucket streams, a step back does not,
	// and a machine first seen late is carried back over the leading gap.
	f.Add("m1,10,50\nm1,5,60\nm2,299,10\nm1,301,70\n")
	f.Add("m1,600,50\nm1,0,60\n")
	f.Add("m1,0,50\nm1,300,60\nm2,900,10\n")
	// Past the cell cap: accepted by the source alone.
	f.Add("m1,0,50\nm2,0,50\nm3,0,50\nm4,0,50\nm5,0,50\nm6,0,50\nm7,0,50\nm8,0,50\nm9,0,50\nm10,0,50\nm11,0,50\nm12,0,50\nm13,0,50\nm14,0,50\nm15,0,50\nm16,0,50\nm17,300000000,50\n")
	f.Fuzz(func(t *testing.T, raw string) {
		o := AlibabaOptions()
		dense, denseErr := ReadLongFormat(strings.NewReader(raw), o)
		open := func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(raw)), nil }
		src, srcErr := NewLongFormatSource(open, o)
		if srcErr == nil {
			defer src.Close()
			m := src.Meta()
			if denseErr != nil && m.Servers*m.Intervals > MaxLongFormatCells {
				return
			}
			if denseErr == nil {
				want := Meta{Name: dense.Name, Class: dense.Class, Servers: dense.Servers(),
					Intervals: dense.Intervals(), Interval: dense.Interval}
				if m != want {
					t.Fatalf("meta %+v, ReadLongFormat %+v", m, want)
				}
			}
			srcErr = drainLongFormat(src, dense)
			if srcErr != nil && !errors.Is(srcErr, ErrUnsortedLongFormat) {
				t.Fatalf("LongFormatSource failed mid-stream: %v", srcErr)
			}
		}
		switch {
		case srcErr == nil && denseErr != nil:
			t.Fatalf("LongFormatSource accepted an input ReadLongFormat rejects: %v", denseErr)
		case srcErr != nil && denseErr == nil && !errors.Is(srcErr, ErrUnsortedLongFormat):
			t.Fatalf("LongFormatSource rejected an input ReadLongFormat accepts: %v", srcErr)
		}
	})
}

// drainLongFormat reads src to its end. With dense non-nil, every column must
// arrive in order and be bit-identical to dense's. A source that errs
// returns its error; one that misorders, differs or runs past its last
// interval returns an error naming the fault.
func drainLongFormat(src *LongFormatSource, dense *Trace) error {
	m := src.Meta()
	col := make([]float64, m.Servers)
	for i := 0; i < m.Intervals; i++ {
		got, err := src.NextColumn(col)
		if err != nil {
			return err
		}
		if got != i {
			return fmt.Errorf("column %d arrived as %d", i, got)
		}
		if dense == nil {
			continue
		}
		for s, v := range col {
			if math.Float64bits(v) != math.Float64bits(dense.U[s][i]) {
				return fmt.Errorf("cell (s=%d, i=%d): streamed %v, ReadLongFormat %v", s, i, v, dense.U[s][i])
			}
		}
	}
	if _, err := src.NextColumn(col); err != io.EOF {
		return fmt.Errorf("no io.EOF after the last interval: %v", err)
	}
	return nil
}
