package numeric

import (
	"errors"
)

// ArgminInt minimizes f over the integer range [lo, hi] by exhaustive scan
// (the paper's circulation-design objective is evaluated over divisor counts,
// a tiny discrete domain). It returns the minimizing argument and value.
func ArgminInt(f func(int) float64, lo, hi int) (int, float64, error) {
	if hi < lo {
		return 0, 0, errors.New("numeric: ArgminInt empty range")
	}
	bestX, bestF := lo, f(lo)
	for x := lo + 1; x <= hi; x++ {
		if v := f(x); v < bestF {
			bestX, bestF = x, v
		}
	}
	return bestX, bestF, nil
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n == 1 returns just lo.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
