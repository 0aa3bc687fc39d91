package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDescribeBasics(t *testing.T) {
	s, err := Describe([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Sum != 15 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v, want sqrt(2.5)", s.Std)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %v, want 3", s.P50)
	}
}

func TestDescribeEmpty(t *testing.T) {
	if _, err := Describe(nil); err == nil {
		t.Error("empty sample should error")
	}
}

func TestDescribeSingle(t *testing.T) {
	s, err := Describe([]float64{4.177})
	if err != nil {
		t.Fatal(err)
	}
	if s.Std != 0 || s.Mean != 4.177 || s.P95 != 4.177 {
		t.Errorf("summary = %+v", s)
	}
}

func TestDescribeBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !bad(x) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Describe(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 &&
			s.Min <= s.P50 && s.P50 <= s.Max &&
			s.P50 <= s.P95+1e-9 && s.P95 <= s.P99+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := Percentile(sorted, 0.5); got != 25 {
		t.Errorf("P50 = %v, want 25", got)
	}
	if got := Percentile(sorted, 0); got != 10 {
		t.Errorf("P0 = %v, want 10", got)
	}
	if got := Percentile(sorted, 1); got != 40 {
		t.Errorf("P100 = %v, want 40", got)
	}
	if got := Percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty percentile = %v, want NaN", got)
	}
}

func TestMeanMax(t *testing.T) {
	xs := []float64{3.725, 3.772, 3.586}
	if got := Mean(xs); math.Abs(got-3.694333) > 1e-5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Max(xs); got != 3.772 {
		t.Errorf("Max = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max of empty should be -Inf")
	}
}

func TestRMSE(t *testing.T) {
	got, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || got != 0 {
		t.Errorf("RMSE identical = %v, %v", got, err)
	}
	got, err = RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil || math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMSE = %v, want sqrt(12.5)", got)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Error("empty should error")
	}
}
