package numeric

import (
	"math"
	"testing"
)

func TestRK4ExponentialDecay(t *testing.T) {
	// y' = -y, y(0) = 1 -> y(t) = e^-t. This is exactly the lumped RC
	// cooling law the thermal network integrates.
	r, err := NewRK4(1, func(_ float64, y, dydt []float64) { dydt[0] = -y[0] })
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{1}
	if err := r.Integrate(0, 2, y, 0.01); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-math.Exp(-2)) > 1e-8 {
		t.Errorf("y(2) = %v, want %v", y[0], math.Exp(-2))
	}
}

func TestRK4Harmonic(t *testing.T) {
	// y'' = -y as a system; energy must be conserved to high order.
	r, err := NewRK4(2, func(_ float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{1, 0}
	if err := r.Integrate(0, 2*math.Pi, y, 0.001); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-9 || math.Abs(y[1]) > 1e-9 {
		t.Errorf("after full period y = %v, want [1 0]", y)
	}
}

func TestRK4FinalStepLandsExactly(t *testing.T) {
	// Integrating to a horizon that is not a multiple of h must not
	// overshoot: y' = 1 gives y(t1) - y(t0) = t1 - t0 exactly.
	r, _ := NewRK4(1, func(_ float64, _, dydt []float64) { dydt[0] = 1 })
	y := []float64{0}
	if err := r.Integrate(0, 1.2345, y, 0.1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1.2345) > 1e-12 {
		t.Errorf("y = %v, want 1.2345", y[0])
	}
}

func TestRK4Errors(t *testing.T) {
	if _, err := NewRK4(0, func(float64, []float64, []float64) {}); err == nil {
		t.Error("zero dim should error")
	}
	if _, err := NewRK4(1, nil); err == nil {
		t.Error("nil derivative should error")
	}
	r, _ := NewRK4(1, func(_ float64, y, d []float64) { d[0] = 0 })
	if err := r.Integrate(0, 1, []float64{0}, 0); err == nil {
		t.Error("zero step should error")
	}
}
