package numeric

import "errors"

// Derivative computes dy/dt for state y at time t, writing the result into
// dydt (same length as y). Implementations must not retain the slices.
type Derivative func(t float64, y, dydt []float64)

// RK4 advances the ODE y' = f(t, y) from t over one step of size h with the
// classical fourth-order Runge-Kutta method, updating y in place.
// Scratch buffers are reused across calls via the returned stepper to keep
// long transient simulations allocation-free.
type RK4 struct {
	f                  Derivative
	k1, k2, k3, k4, yt []float64
}

// NewRK4 creates a stepper for a system with dim state variables.
func NewRK4(dim int, f Derivative) (*RK4, error) {
	if dim <= 0 {
		return nil, errors.New("numeric: RK4 dimension must be positive")
	}
	if f == nil {
		return nil, errors.New("numeric: RK4 derivative must not be nil")
	}
	return &RK4{
		f:  f,
		k1: make([]float64, dim), k2: make([]float64, dim),
		k3: make([]float64, dim), k4: make([]float64, dim),
		yt: make([]float64, dim),
	}, nil
}

// Step advances y (in place) from time t by h and returns t+h.
func (r *RK4) Step(t float64, y []float64, h float64) float64 {
	n := len(r.k1)
	r.f(t, y, r.k1)
	for i := 0; i < n; i++ {
		r.yt[i] = y[i] + h/2*r.k1[i]
	}
	r.f(t+h/2, r.yt, r.k2)
	for i := 0; i < n; i++ {
		r.yt[i] = y[i] + h/2*r.k2[i]
	}
	r.f(t+h/2, r.yt, r.k3)
	for i := 0; i < n; i++ {
		r.yt[i] = y[i] + h*r.k3[i]
	}
	r.f(t+h, r.yt, r.k4)
	for i := 0; i < n; i++ {
		y[i] += h / 6 * (r.k1[i] + 2*r.k2[i] + 2*r.k3[i] + r.k4[i])
	}
	return t + h
}

// Integrate advances y from t0 to t1 with fixed steps of at most h,
// shortening the final step to land exactly on t1.
func (r *RK4) Integrate(t0, t1 float64, y []float64, h float64) error {
	if h <= 0 {
		return errors.New("numeric: RK4 step must be positive")
	}
	t := t0
	for t < t1 {
		step := h
		if t+step > t1 {
			step = t1 - t
		}
		t = r.Step(t, y, step)
	}
	return nil
}
