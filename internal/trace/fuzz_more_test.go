package trace

import (
	"strings"
	"testing"
)

// FuzzReadLongFormat hardens the long-format (Alibaba/Google layout)
// resampler: arbitrary input must either parse into a valid, size-bounded
// trace or return an error — never panic, never allocate past the documented
// caps, never emit non-finite utilizations.
func FuzzReadLongFormat(f *testing.F) {
	// A well-formed two-machine file with jittered timestamps and a gap that
	// exercises the carry-forward path.
	f.Add("m1,0,50\nm1,310,60\nm2,0,10\nm2,300,20\nm1,900,70\n")
	// Single row, negative timestamp (valid: buckets may start below zero).
	f.Add("m42,-300,55\n")
	// Utilization outside [0,100] percent: clamped, not rejected.
	f.Add("m1,0,250\nm1,300,-10\n")
	// Hostile inputs the parser must reject cleanly.
	f.Add("")
	f.Add("m1,NaN,50\n")
	f.Add("m1,+Inf,50\n")
	f.Add("m1,0,NaN\n")
	f.Add("m1,1e300,50\n")
	f.Add("m1,0\n")
	f.Add("m1,0,50,extra,fields\n")
	f.Add("\"quoted,id\",0,50\n")
	f.Fuzz(func(t *testing.T, raw string) {
		got, err := ReadLongFormat(strings.NewReader(raw), AlibabaOptions())
		if err != nil {
			return
		}
		if vErr := got.Validate(); vErr != nil {
			t.Fatalf("accepted trace fails validation: %v", vErr)
		}
		if got.Intervals() > MaxLongFormatIntervals {
			t.Fatalf("accepted trace spans %d intervals past the cap", got.Intervals())
		}
		if cells := got.Servers() * got.Intervals(); cells > MaxLongFormatCells {
			t.Fatalf("accepted trace has %d cells past the cap", cells)
		}
	})
}
