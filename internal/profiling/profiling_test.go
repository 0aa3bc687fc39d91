package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU and heap so the profiles have samples to record.
	sink := 0.0
	for i := 0; i < 1<<16; i++ {
		sink += float64(i) * 1.0000001
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartDisabledIsNoOp(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("disabled stop returned %v", err)
	}
}

func TestStartRejectsBadCPUPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu"), ""); err == nil {
		t.Error("unwritable cpu path should error")
	}
}

func TestStopReportsBadMemPath(t *testing.T) {
	stop, err := Start("", filepath.Join(t.TempDir(), "no", "such", "dir", "mem"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("unwritable mem path should surface from stop")
	}
}
