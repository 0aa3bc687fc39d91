package numeric

import (
	"math"
	"testing"
)

func TestArgminInt(t *testing.T) {
	// U-shaped discrete objective like the circulation-cost curve.
	f := func(n int) float64 { return float64((n-7)*(n-7)) + 3 }
	x, v, err := ArgminInt(f, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if x != 7 || v != 3 {
		t.Errorf("argmin = (%d, %v), want (7, 3)", x, v)
	}
	if _, _, err := ArgminInt(f, 5, 4); err == nil {
		t.Error("empty range should error")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Errorf("Linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := Linspace(5, 9, 1); len(got) != 1 || got[0] != 5 {
		t.Errorf("Linspace n=1 = %v", got)
	}
	if got := Linspace(0, 1, 0); got != nil {
		t.Errorf("Linspace n=0 = %v, want nil", got)
	}
	// Endpoint must be exact even with inexact steps.
	xs := Linspace(0, 0.3, 4)
	if xs[3] != 0.3 {
		t.Errorf("endpoint = %v, want exactly 0.3", xs[3])
	}
}
