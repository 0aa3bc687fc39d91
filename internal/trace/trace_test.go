package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNewShape(t *testing.T) {
	tr, err := New("x", Common, 10, 288, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Servers() != 10 || tr.Intervals() != 288 {
		t.Errorf("shape = %dx%d", tr.Servers(), tr.Intervals())
	}
	if tr.Duration() != 24*time.Hour {
		t.Errorf("duration = %v, want 24h", tr.Duration())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("zero trace should validate: %v", err)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New("x", Common, 0, 1, time.Minute); err == nil {
		t.Error("zero servers should error")
	}
	if _, err := New("x", Common, 1, 0, time.Minute); err == nil {
		t.Error("zero intervals should error")
	}
	if _, err := New("x", Common, 1, 1, 0); err == nil {
		t.Error("zero interval duration should error")
	}
}

func TestValidateCatchesBadValues(t *testing.T) {
	tr, _ := New("x", Common, 2, 3, time.Minute)
	tr.U[1][2] = 1.5
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range utilization should fail validation")
	}
	tr.U[1][2] = math.NaN()
	if err := tr.Validate(); err == nil {
		t.Error("NaN utilization should fail validation")
	}
	tr.U[1][2] = 0.5
	tr.U[0] = tr.U[0][:2]
	if err := tr.Validate(); err == nil {
		t.Error("ragged trace should fail validation")
	}
}

func TestColumnMaxAvgDispersion(t *testing.T) {
	tr, _ := New("x", Common, 4, 2, time.Minute)
	for s, u := range []float64{0.1, 0.2, 0.3, 0.8} {
		tr.U[s][0] = u
	}
	mx, err := tr.MaxAt(0)
	if err != nil || mx != 0.8 {
		t.Errorf("MaxAt = %v, %v", mx, err)
	}
	av, err := tr.AvgAt(0)
	if err != nil || math.Abs(av-0.35) > 1e-12 {
		t.Errorf("AvgAt = %v, %v", av, err)
	}
	d, err := tr.DispersionAt(0)
	if err != nil || math.Abs(d-0.45) > 1e-12 {
		t.Errorf("DispersionAt = %v, %v", d, err)
	}
	if _, err := tr.Column(5, nil); err == nil {
		t.Error("out-of-range column should error")
	}
	// Column reuses a provided buffer.
	buf := make([]float64, 4)
	col, err := tr.Column(0, buf)
	if err != nil || &col[0] != &buf[0] {
		t.Error("column should reuse the caller's buffer")
	}
}

// TestBalancedPreservesWorkAndKillsDispersion pins AvgAt and DispersionAt
// on the TEG_LoadBalance outcome: the same mean load, no dispersion.
func TestBalancedPreservesWorkAndKillsDispersion(t *testing.T) {
	tr, err := Generate(DrasticConfig(50), 7)
	if err != nil {
		t.Fatal(err)
	}
	b := balanced(tr)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Intervals(); i++ {
		a1, _ := tr.AvgAt(i)
		a2, _ := b.AvgAt(i)
		if math.Abs(a1-a2) > 1e-12 {
			t.Fatalf("interval %d: balancing changed total work %v -> %v", i, a1, a2)
		}
		d, _ := b.DispersionAt(i)
		if d > 1e-12 {
			t.Fatalf("interval %d: balanced dispersion %v", i, d)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(CommonConfig(20), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(CommonConfig(20), 99)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.U {
		for i := range a.U[s] {
			if a.U[s][i] != b.U[s][i] {
				t.Fatalf("seeded generation not deterministic at [%d][%d]", s, i)
			}
		}
	}
	c, err := Generate(CommonConfig(20), 100)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for s := range a.U {
		for i := range a.U[s] {
			if a.U[s][i] != c.U[s][i] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds should give different traces")
	}
}

func TestGenerateClassShapes(t *testing.T) {
	trs, err := GenerateAll(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	drastic, irregular, common := trs[0], trs[1], trs[2]
	if drastic.Duration() != 12*time.Hour {
		t.Errorf("drastic duration = %v, want 12h (Alibaba)", drastic.Duration())
	}
	if irregular.Duration() != 24*time.Hour || common.Duration() != 24*time.Hour {
		t.Error("google traces should cover 24h")
	}
	sd, _ := drastic.Describe()
	si, _ := irregular.Describe()
	sc, _ := common.Describe()
	// All three land in the low-utilization regime of the paper.
	for _, s := range []struct {
		name string
		mean float64
	}{{"drastic", sd.Mean}, {"irregular", si.Mean}, {"common", sc.Mean}} {
		if s.mean < 0.10 || s.mean > 0.40 {
			t.Errorf("%s mean utilization = %v, want 0.10-0.40", s.name, s.mean)
		}
	}
	// Drastic fluctuates far more than common. Both carry persistent
	// per-server base spread; the difference lives in the *temporal*
	// variance, so compare the mean per-server standard deviation over
	// time rather than the pooled spread.
	if tv := temporalStd(drastic); tv < 2.5*temporalStd(common) {
		t.Errorf("drastic temporal std %v should dwarf common %v", tv, temporalStd(common))
	}
	// Irregular has high peaks despite a calm mean.
	if si.P99 < 0.5 {
		t.Errorf("irregular P99 = %v, want occasional high peaks", si.P99)
	}
}

// temporalStd returns the mean over servers of each server's standard
// deviation across time.
func temporalStd(tr *Trace) float64 {
	var sum float64
	for _, row := range tr.U {
		mean := 0.0
		for _, u := range row {
			mean += u
		}
		mean /= float64(len(row))
		ss := 0.0
		for _, u := range row {
			ss += (u - mean) * (u - mean)
		}
		sum += math.Sqrt(ss / float64(len(row)-1))
	}
	return sum / float64(len(tr.U))
}

func TestGenerateErrors(t *testing.T) {
	cfg := CommonConfig(0)
	if _, err := Generate(cfg, 1); err == nil {
		t.Error("zero servers should error")
	}
	cfg = CommonConfig(5)
	cfg.Interval = 0
	if _, err := Generate(cfg, 1); err == nil {
		t.Error("zero interval should error")
	}
	cfg = CommonConfig(5)
	cfg.Horizon = time.Second
	if _, err := Generate(cfg, 1); err == nil {
		t.Error("horizon below interval should error")
	}
}

func TestSlice(t *testing.T) {
	tr, _ := Generate(CommonConfig(20), 3)
	s, err := tr.Slice(5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Servers() != 5 || s.Intervals() != tr.Intervals() {
		t.Errorf("slice shape %dx%d", s.Servers(), s.Intervals())
	}
	if _, err := tr.Slice(0); err == nil {
		t.Error("zero slice should error")
	}
	if _, err := tr.Slice(21); err == nil {
		t.Error("oversized slice should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr, _ := Generate(IrregularConfig(7), 11)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Class != tr.Class || back.Interval != tr.Interval {
		t.Errorf("metadata lost: %v %v %v", back.Name, back.Class, back.Interval)
	}
	if back.Servers() != tr.Servers() || back.Intervals() != tr.Intervals() {
		t.Fatalf("shape lost")
	}
	for s := range tr.U {
		for i := range tr.U[s] {
			if tr.U[s][i] != back.U[s][i] {
				t.Fatalf("value [%d][%d] changed: %v -> %v", s, i, tr.U[s][i], back.U[s][i])
			}
		}
	}
}

func TestReadCSVHeaderless(t *testing.T) {
	raw := "0,0.1,0.2\n1,0.3,0.4\n"
	tr, err := ReadCSV(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Servers() != 2 || tr.Intervals() != 2 {
		t.Errorf("shape = %dx%d", tr.Servers(), tr.Intervals())
	}
	if tr.U[1][1] != 0.4 {
		t.Errorf("value = %v", tr.U[1][1])
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"0\n",
		"0,0.1\n1,abc\n",
		"0,0.1,0.2\n1,0.3\n",
		"0,1.5\n",
	}
	for i, raw := range cases {
		if _, err := ReadCSV(strings.NewReader(raw)); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}
