// Package stats provides the statistical substrate of the H2P simulator:
// the normal distribution and its order statistics (Sec. V-A of the paper
// models per-CPU temperatures as i.i.d. normals and sizes water circulations
// by the expected maximum), descriptive statistics over time series, and
// least-squares fitting used to calibrate device models to measurements.
package stats

import (
	"math"
)

// Normal is a normal (Gaussian) distribution N(mu, sigma^2).
type Normal struct {
	Mu    float64 // mean
	Sigma float64 // standard deviation, must be > 0
}

// PDF returns the probability density at x (Eq. 13 of the paper).
func (n Normal) PDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X <= x) (Eq. 14 of the paper).
func (n Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// MaxOrderStatistic describes the distribution of the maximum of m i.i.d.
// draws from an underlying normal (Eq. 15-16 of the paper: F_max = F^m).
type MaxOrderStatistic struct {
	Base Normal
	M    int // number of draws, must be >= 1
}

// PDF returns the density m*F(x)^(m-1)*f(x) of the maximum (Eq. 16).
func (o MaxOrderStatistic) PDF(x float64) float64 {
	m := float64(o.M)
	return m * math.Pow(o.Base.CDF(x), m-1) * o.Base.PDF(x)
}

// Mean computes E(T_max) = integral x*f_max(x) dx (Eq. 17) by Simpson
// quadrature over mu +/- 10 sigma, which captures the mass to well below
// double precision for any practical m.
func (o MaxOrderStatistic) Mean() float64 {
	if o.M == 1 {
		return o.Base.Mu
	}
	lo := o.Base.Mu - 10*o.Base.Sigma
	hi := o.Base.Mu + 12*o.Base.Sigma
	const steps = 4000 // even
	h := (hi - lo) / steps
	sum := lo*o.PDF(lo) + hi*o.PDF(hi)
	for i := 1; i < steps; i++ {
		x := lo + float64(i)*h
		w := 4.0
		if i%2 == 0 {
			w = 2.0
		}
		sum += w * x * o.PDF(x)
	}
	return sum * h / 3
}
