package lookup

import (
	"slices"
	"strings"
	"testing"

	"github.com/h2p-sim/h2p/internal/telemetry"
)

// TestAttachTelemetryCountsScans checks the space's instrument set: the
// registry holds exactly the three miss-scan instruments, and every row
// fetch counts one scan.
func TestAttachTelemetryCountsScans(t *testing.T) {
	s := buildDefault(t)
	reg := telemetry.New()
	s.AttachTelemetry(reg)
	idx := s.SegmentIndex(61, 63)
	var buf []SlabRow
	for k := range 10 {
		s.SlabRows(idx, float64(k)/10, &buf)
	}
	s.PlaneRows(0.5, &buf)

	snap := reg.Snapshot()
	var names []string
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "h2p_lookup_") {
			names = append(names, c.Name)
		}
		if c.Name == metricBatchScans && c.Value != 11 {
			t.Errorf("batch scans = %d, want 11", c.Value)
		}
	}
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, "h2p_lookup_") {
			names = append(names, h.Name)
		}
	}
	slices.Sort(names)
	want := []string{metricBatchScanCells, metricBatchScanPlanes, metricBatchScans}
	if !slices.Equal(names, want) {
		t.Errorf("look-up instruments %v, want %v", names, want)
	}
}

// TestUninstrumentedSpaceScansFreely pins the disabled path: a space never
// offered a registry must keep the miss scan's row fetches allocation-free
// once the caller's full-plane buffer is grown.
func TestUninstrumentedSpaceScansFreely(t *testing.T) {
	s := buildDefault(t)
	idx := s.SegmentIndex(61, 63)
	var buf []SlabRow
	s.PlaneRows(0.5, &buf)
	var sink float64
	allocs := testing.AllocsPerRun(20, func() {
		rows, w0, _, _ := s.SlabRows(idx, 0.5, &buf)
		sink += w0 * float64(len(rows))
		rows, w0, _ = s.PlaneRows(0.5, &buf)
		sink += w0 * rows[0].C0
	})
	if allocs != 0 {
		t.Errorf("uninstrumented row fetches = %v allocs/op, want 0", allocs)
	}
	_ = sink
}
