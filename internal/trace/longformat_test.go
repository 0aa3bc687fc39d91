package trace

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestAlibabaOptionsValidate(t *testing.T) {
	if err := AlibabaOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*LongFormatOptions){
		func(o *LongFormatOptions) { o.MachineColumn = -1 },
		func(o *LongFormatOptions) { o.TimestampColumn = o.MachineColumn },
		func(o *LongFormatOptions) { o.UtilScale = 0 },
		func(o *LongFormatOptions) { o.Interval = 0 },
	}
	for i, mut := range cases {
		o := AlibabaOptions()
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadLongFormatAlibabaShape(t *testing.T) {
	// Two machines, observations every ~100 s over 15 minutes, percent
	// utilizations with extra trailing columns as in machine_usage.csv.
	raw := strings.Join([]string{
		"m_1,0,30,55,,,,",
		"m_2,10,10,40,,,,",
		"m_1,100,40,55,,,,",
		"m_2,110,20,40,,,,",
		"m_1,400,60,55,,,,",
		"m_2,410,30,40,,,,",
		"m_1,800,90,55,,,,",
		"m_2,810,50,40,,,,",
	}, "\n")
	tr, err := ReadLongFormat(strings.NewReader(raw), AlibabaOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Servers() != 2 {
		t.Fatalf("servers = %d", tr.Servers())
	}
	if tr.Intervals() != 3 { // buckets 0, 1, 2 of 300 s
		t.Fatalf("intervals = %d", tr.Intervals())
	}
	if tr.Interval != 5*time.Minute {
		t.Errorf("interval = %v", tr.Interval)
	}
	// Bucket 0 of m_1 averages 30% and 40% -> 0.35.
	if math.Abs(tr.U[0][0]-0.35) > 1e-12 {
		t.Errorf("m_1 bucket 0 = %v, want 0.35", tr.U[0][0])
	}
	// Bucket 1 of m_1 holds the single 60% observation.
	if math.Abs(tr.U[0][1]-0.60) > 1e-12 {
		t.Errorf("m_1 bucket 1 = %v, want 0.60", tr.U[0][1])
	}
	// m_2 ordered second (first appearance).
	if math.Abs(tr.U[1][2]-0.50) > 1e-12 {
		t.Errorf("m_2 bucket 2 = %v, want 0.50", tr.U[1][2])
	}
	if tr.Class != Drastic || tr.Name != "alibaba-machine-usage" {
		t.Errorf("metadata: %v %v", tr.Class, tr.Name)
	}
}

func TestReadLongFormatGapCarryForward(t *testing.T) {
	// m_1 reports in buckets 0 and 3; buckets 1-2 carry the last value.
	// m_2 first reports in bucket 2; its leading gap seeds from that
	// first observation rather than idling at zero.
	raw := strings.Join([]string{
		"m_1,0,20",
		"m_1,1000,80",
		"m_2,700,50",
	}, "\n")
	tr, err := ReadLongFormat(strings.NewReader(raw), AlibabaOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Intervals() != 4 {
		t.Fatalf("intervals = %d", tr.Intervals())
	}
	if tr.U[0][1] != 0.20 || tr.U[0][2] != 0.20 {
		t.Errorf("carry forward broken: %v", tr.U[0])
	}
	if tr.U[0][3] != 0.80 {
		t.Errorf("bucket 3 = %v", tr.U[0][3])
	}
	if tr.U[1][0] != 0.50 || tr.U[1][3] != 0.50 {
		t.Errorf("leading gap seed broken: %v", tr.U[1])
	}
}

func TestReadLongFormatClampsOutOfRange(t *testing.T) {
	raw := "m_1,0,150\nm_1,300,-20\n"
	tr, err := ReadLongFormat(strings.NewReader(raw), AlibabaOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.U[0][0] != 1 || tr.U[0][1] != 0 {
		t.Errorf("clamping broken: %v", tr.U[0])
	}
}

func TestReadLongFormatErrors(t *testing.T) {
	o := AlibabaOptions()
	cases := []string{
		"",
		"m_1,0\n",      // too few fields
		"m_1,abc,10\n", // bad timestamp
		"m_1,0,xyz\n",  // bad utilization
	}
	for i, raw := range cases {
		if _, err := ReadLongFormat(strings.NewReader(raw), o); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
	bad := o
	bad.Interval = 0
	if _, err := ReadLongFormat(strings.NewReader("m_1,0,10\n"), bad); err == nil {
		t.Error("bad options should error")
	}
}

func TestReadLongFormatFeedsEngineFormats(t *testing.T) {
	// A long-format import must satisfy the same invariants as synthetic
	// traces so it can drive the evaluation directly.
	raw := strings.Join([]string{
		"a,0,25", "b,5,35", "c,8,45",
		"a,300,30", "b,305,20", "c,310,60",
		"a,600,15", "b,605,70", "c,610,40",
	}, "\n")
	tr, err := ReadLongFormat(strings.NewReader(raw), AlibabaOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := analyze(tr); err != nil {
		t.Fatal(err)
	}
	b := balanced(tr)
	for i := 0; i < tr.Intervals(); i++ {
		d, err := b.DispersionAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-12 {
			t.Fatal("balanced import should have zero dispersion")
		}
	}
}

func TestGoogleOptions(t *testing.T) {
	o := GoogleOptions()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	// Google reports fractional utilization directly.
	raw := "m_a,0,0.35\nm_a,300,0.55\n"
	tr, err := ReadLongFormat(strings.NewReader(raw), o)
	if err != nil {
		t.Fatal(err)
	}
	if tr.U[0][0] != 0.35 || tr.U[0][1] != 0.55 {
		t.Errorf("values = %v", tr.U[0])
	}
	if tr.Class != Common {
		t.Errorf("class = %v", tr.Class)
	}
}
