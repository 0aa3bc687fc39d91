package stats

import (
	"math"
	"testing"
)

func TestNormalPDFIntegratesToOne(t *testing.T) {
	n := Normal{Mu: 55, Sigma: 6}
	lo, hi := n.Mu-10*n.Sigma, n.Mu+10*n.Sigma
	const steps = 2000
	h := (hi - lo) / steps
	sum := n.PDF(lo) + n.PDF(hi)
	for i := 1; i < steps; i++ {
		w := 4.0
		if i%2 == 0 {
			w = 2.0
		}
		sum += w * n.PDF(lo+float64(i)*h)
	}
	integral := sum * h / 3
	if math.Abs(integral-1) > 1e-9 {
		t.Errorf("PDF integrates to %v, want 1", integral)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	std := Normal{Mu: 0, Sigma: 1}
	tests := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
	}
	for _, tc := range tests {
		if got := std.CDF(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func frac(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	v := math.Abs(x) - math.Floor(math.Abs(x))
	return v
}

func TestMaxOrderStatisticM1(t *testing.T) {
	o := MaxOrderStatistic{Base: Normal{Mu: 55, Sigma: 6}, M: 1}
	if got := o.Mean(); math.Abs(got-55) > 1e-9 {
		t.Errorf("Mean of max of 1 = %v, want 55", got)
	}
}

func TestMaxOrderStatisticKnownValues(t *testing.T) {
	// For standard normal, E(max of 2) = 1/sqrt(pi) = 0.5642,
	// E(max of 3) = 3/(2 sqrt(pi)) = 0.8463 (classical results).
	base := Normal{Mu: 0, Sigma: 1}
	if got := (MaxOrderStatistic{base, 2}).Mean(); math.Abs(got-1/math.Sqrt(math.Pi)) > 1e-6 {
		t.Errorf("E(max of 2) = %v, want %v", got, 1/math.Sqrt(math.Pi))
	}
	if got := (MaxOrderStatistic{base, 3}).Mean(); math.Abs(got-3/(2*math.Sqrt(math.Pi))) > 1e-6 {
		t.Errorf("E(max of 3) = %v, want %v", got, 3/(2*math.Sqrt(math.Pi)))
	}
}

func TestMaxOrderStatisticGrowsWithM(t *testing.T) {
	base := Normal{Mu: 55, Sigma: 6}
	prev := math.Inf(-1)
	for _, m := range []int{1, 2, 5, 10, 50, 200, 1000} {
		mean := MaxOrderStatistic{base, m}.Mean()
		if mean <= prev {
			t.Errorf("E(max of %d) = %v not increasing (prev %v)", m, mean, prev)
		}
		prev = mean
	}
	// Location-scale: E(max) = mu + sigma * E(max of standard normals).
	m := 100
	std := MaxOrderStatistic{Normal{0, 1}, m}.Mean()
	scaled := MaxOrderStatistic{base, m}.Mean()
	if math.Abs(scaled-(55+6*std)) > 1e-6 {
		t.Errorf("location-scale violated: %v vs %v", scaled, 55+6*std)
	}
}

// meanApprox returns the classical asymptotic approximation
// mu + sigma*(sqrt(2 ln m) - (ln ln m + ln 4pi)/(2 sqrt(2 ln m))) of the
// expected maximum, a cross-check of the quadrature in Mean for large m.
func meanApprox(o MaxOrderStatistic) float64 {
	m := float64(o.M)
	if o.M <= 1 {
		return o.Base.Mu
	}
	l := math.Sqrt(2 * math.Log(m))
	return o.Base.Mu + o.Base.Sigma*(l-(math.Log(math.Log(m))+math.Log(4*math.Pi))/(2*l))
}

func TestMaxOrderStatisticApproxAgreesForLargeM(t *testing.T) {
	base := Normal{Mu: 0, Sigma: 1}
	for _, m := range []int{100, 1000} {
		o := MaxOrderStatistic{base, m}
		exact, approx := o.Mean(), meanApprox(o)
		// The asymptotic expansion converges slowly; 0.15 is within its
		// known error at these m.
		if math.Abs(exact-approx) > 0.15 {
			t.Errorf("m=%d: quadrature %v vs asymptotic %v differ too much", m, exact, approx)
		}
	}
	// Reference value: E(max of 1000 standard normals) = 3.2414 (tabulated).
	if got := (MaxOrderStatistic{base, 1000}).Mean(); math.Abs(got-3.2414) > 5e-4 {
		t.Errorf("E(max of 1000) = %v, want ~3.2414", got)
	}
}
