package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	P50, P95, P99    float64
	Sum              float64
	CoeffOfVariation float64 // Std/Mean, 0 when Mean == 0
}

// Describe computes descriptive statistics over xs. It returns an error for
// an empty sample.
func Describe(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, errors.New("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	if s.Mean != 0 {
		s.CoeffOfVariation = s.Std / s.Mean
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 0.50)
	s.P95 = Percentile(sorted, 0.95)
	s.P99 = Percentile(sorted, 0.99)
	return s, nil
}

// Percentile returns the p-th percentile (p in [0,1]) of an already sorted
// sample using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// RMSE returns the root-mean-square error between two equally long series.
// The paper reports its CPU power fit (Eq. 20) has RMSE < 5 W; the model
// calibration tests use this to enforce the same bound.
func RMSE(pred, obs []float64) (float64, error) {
	if len(pred) != len(obs) {
		return 0, errors.New("stats: RMSE length mismatch")
	}
	if len(pred) == 0 {
		return 0, errors.New("stats: RMSE of empty series")
	}
	var ss float64
	for i := range pred {
		d := pred[i] - obs[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(pred))), nil
}
