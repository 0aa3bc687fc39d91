package lookup

import (
	"math"

	"github.com/h2p-sim/h2p/internal/numeric"
	"github.com/h2p-sim/h2p/internal/units"
)

// This file is the batch (struct-of-arrays) face of the candidate tables:
// where tables.go streams one plane through a visitor callback per cell, the
// kernels here evaluate a whole *column* of utilizations against the
// flattened stencils in cache-blocked passes. The per-interval decision path
// calls them once per circulation block instead of once per server, which is
// what turns the controller's hot loop from interface-call-per-server into a
// handful of linear sweeps over contiguous float64 slabs.
//
// Bit-identity contract: every number produced here reproduces the
// corresponding scalar path exactly. BatchEval blends with the same
// numeric.Cell location and the same w0*t0 + w1*t1 operation order as
// candTables.pointAt — which tables.go already pins against Grid3D.Eval for
// the grid-aligned flow/inlet coordinates of a candidate cell — and
// BatchVisitPlane walks cells in VisitPlane's order within each plane, so a
// consumer folding per-plane state in cell order observes the exact scalar
// visit sequence.

// batchBlockPlanes is the cache-blocking factor of BatchVisitPlane: planes
// are processed in blocks of this many columns so the per-block working set
// (two temperature rows plus the location arrays, ~10 KB) stays in L1 while
// every candidate cell's stencil streams through once per block. Raising it
// amortizes the stencil sweep over more planes; lowering it shrinks the
// resident rows. 256 keeps both comfortably under a 32 KB L1d.
const batchBlockPlanes = 256

// BatchLoc holds the precomputed utilization-axis locations of one column of
// utilizations — the struct-of-arrays (stencil index, blend weights) triple
// per element — plus the temperature rows the blocked kernels blend into. A
// BatchLoc may be reused across calls by one goroutine at a time (the engine
// keeps one per worker); the zero value is ready to use.
type BatchLoc struct {
	n      int
	iu     []int32
	w0, w1 []float64
	// cpu/out are the per-block blend rows BatchVisitPlane hands to its
	// visitor, batchBlockPlanes wide.
	cpu, out []float64
}

// Len returns the number of located elements.
func (l *BatchLoc) Len() int { return l.n }

// grow resizes the location arrays to n elements, reusing capacity.
func (l *BatchLoc) grow(n int) {
	if cap(l.iu) < n {
		l.iu = make([]int32, n)
		l.w0 = make([]float64, n)
		l.w1 = make([]float64, n)
	}
	l.iu = l.iu[:n]
	l.w0 = l.w0[:n]
	l.w1 = l.w1[:n]
	l.n = n
}

// rows returns the block blend rows, allocating them on first use.
func (l *BatchLoc) rows() (cpu, out []float64) {
	if l.cpu == nil {
		l.cpu = make([]float64, batchBlockPlanes)
		l.out = make([]float64, batchBlockPlanes)
	}
	return l.cpu, l.out
}

// LocateColumn precomputes the utilization-axis stencil location of every
// element of us into l: the lower stencil index and the two linear blend
// weights. It performs no range validation — numeric.Cell clamps to the
// boundary cell, so out-of-range utilizations extrapolate exactly as
// Grid3D.Eval does, which keeps BatchEval bit-identical to the scalar
// CPUTemp/OutletTemp calls for any input.
func (s *Space) LocateColumn(us []float64, l *BatchLoc) {
	t := s.tabs
	l.grow(len(us))
	for i, u := range us {
		iu, tx := numeric.Cell(t.uAxis, u)
		l.iu[i] = int32(iu)
		l.w0[i] = 1 - tx
		l.w1[i] = tx
	}
}

// BatchEval blends the CPU and outlet temperatures of one candidate cell at
// every located element of l, writing into cpuT and out (each at least
// l.Len() long). For a column located by LocateColumn the results are
// bit-identical to calling CPUTemp/OutletTemp element-wise at the cell's
// (grid-aligned) flow and inlet coordinates: the collapsed flow/inlet axes
// contribute exact 0/1 trilinear weights, so Grid3D.Eval degenerates to the
// same two-term blend evaluated here.
func (s *Space) BatchEval(cell int, l *BatchLoc, cpuT, out []float64) {
	t := s.tabs
	base := cell * t.nu
	tc := t.tcpu[base : base+t.nu]
	to := t.tout[base : base+t.nu]
	for i := 0; i < l.n; i++ {
		b := l.iu[i]
		w0, w1 := l.w0[i], l.w1[i]
		cpuT[i] = w0*tc[b] + w1*tc[b+1]
		out[i] = w0*to[b] + w1*to[b+1]
	}
}

// BatchVisitPlane scans the candidate cells of every utilization plane in us
// in one cache-blocked pass: planes are processed in blocks of
// batchBlockPlanes, and within a block every cell's stencil is blended across
// the whole block before the visitor sees it. visit is called once per
// (cell, plane block) with lo the absolute index of the first plane the rows
// cover; cpuT[k]/out[k] are the blended temperatures of plane lo+k at that
// cell. Returning false stops the scan.
//
// Visit order per plane is exactly VisitPlane's (cell 0, 1, 2, ...), so a
// consumer folding per-plane running state — the controller's slab filter and
// power argmax — observes the scalar visit sequence and reproduces its
// outcome bit for bit. Validation matches VisitPlane: every plane must lie in
// [0, 1].
func (s *Space) BatchVisitPlane(us []float64, l *BatchLoc, visit func(cell, lo int, cpuT, out []float64) bool) error {
	for _, u := range us {
		if u < 0 || u > 1 {
			return errOutsideUnit(u)
		}
	}
	s.LocateColumn(us, l)
	cpuRow, outRow := l.rows()
	t := s.tabs
	cellsWalked := 0
	for lo := 0; lo < len(us); lo += batchBlockPlanes {
		hi := lo + batchBlockPlanes
		if hi > len(us) {
			hi = len(us)
		}
		iu, w0s, w1s := l.iu[lo:hi], l.w0[lo:hi], l.w1[lo:hi]
		for c := 0; c < t.cells; c++ {
			base := c * t.nu
			tc := t.tcpu[base : base+t.nu]
			to := t.tout[base : base+t.nu]
			for k := range iu {
				b := iu[k]
				w0, w1 := w0s[k], w1s[k]
				cpuRow[k] = w0*tc[b] + w1*tc[b+1]
				outRow[k] = w0*to[b] + w1*to[b+1]
			}
			cellsWalked++
			if !visit(c, lo, cpuRow[:hi-lo], outRow[:hi-lo]) {
				s.observeBatchScan(len(us), cellsWalked)
				return nil
			}
		}
	}
	s.observeBatchScan(len(us), cellsWalked)
	return nil
}

// observeBatchScan records one batch plane scan when telemetry is attached.
func (s *Space) observeBatchScan(planes, cells int) {
	if m := s.metrics(); m != nil {
		m.batchScans.Inc()
		m.batchScanPlanes.Observe(float64(planes))
		m.batchScanCells.Observe(float64(cells))
	}
}

// envelopeEps is the relative widening applied to per-segment temperature
// envelopes in buildSegmentIndex. A blend w0*t0 + w1*t1 with weights in
// [0, 1] stays within a few ulps of [min(t0,t1), max(t0,t1)]; widening by
// nine orders of magnitude more than that guarantees no cell that could pass
// an exact band comparison is ever pruned, while still excluding essentially
// every cell whose stencil lies clear of the band.
const envelopeEps = 1e-9

// SegmentIndex is a precomputed pruning structure over the candidate tables:
// for every utilization-axis segment, the ascending list of cells whose
// (ε-widened) CPU-temperature envelope over that segment intersects a fixed
// band [lo, hi]. A plane's safety-slab members are always a subset of its
// segment's list, so a slab scan walks the list — typically a small fraction
// of the plane — instead of every cell, then applies the exact criterion.
// The index depends only on the space and the band, so the space builds it
// once per band (Space.SegmentIndex) and every controller on the space shares
// it; it is immutable after construction.
type SegmentIndex struct {
	lo, hi float64
	cands  [][]int32
}

// Matches reports whether the index was built for exactly this band.
func (idx *SegmentIndex) Matches(lo, hi units.Celsius) bool {
	return idx.lo == float64(lo) && idx.hi == float64(hi)
}

// maxSegmentIndexes bounds the per-band memo. Controllers derive their band
// from the CPU spec, so a space sees one band in practice; bands past the
// bound are built per call rather than retained.
const maxSegmentIndexes = 8

// SegmentIndex returns the space's segment index for the CPU temperature
// band [lo, hi], building it on the band's first use. Later calls for the
// same band return the same index, so every engine sharing the space (a
// Fleet's engines) shares one copy. Safe for concurrent use.
func (s *Space) SegmentIndex(lo, hi units.Celsius) *SegmentIndex {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	for _, idx := range s.segIdx {
		if idx.Matches(lo, hi) {
			return idx
		}
	}
	idx := s.buildSegmentIndex(lo, hi)
	if len(s.segIdx) < maxSegmentIndexes {
		s.segIdx = append(s.segIdx, idx)
	}
	return idx
}

// buildSegmentIndex precomputes the per-segment candidate cells for the CPU
// temperature band [lo, hi]. Cost is one pass over the stencils (cells × nu).
func (s *Space) buildSegmentIndex(lo, hi units.Celsius) *SegmentIndex {
	t := s.tabs
	segs := t.nu - 1
	if segs < 1 {
		segs = 1
	}
	idx := &SegmentIndex{lo: float64(lo), hi: float64(hi), cands: make([][]int32, segs)}
	for b := 0; b < segs; b++ {
		var list []int32
		for c := 0; c < t.cells; c++ {
			base := c * t.nu
			t0 := t.tcpu[base+b]
			t1 := t0
			if b+1 < t.nu {
				t1 = t.tcpu[base+b+1]
			}
			mn, mx := t0, t1
			if mn > mx {
				mn, mx = mx, mn
			}
			eps := envelopeEps * (math.Abs(mn) + math.Abs(mx) + 1)
			if mx+eps >= idx.lo && mn-eps <= idx.hi {
				list = append(list, int32(c))
			}
		}
		idx.cands[b] = list
	}
	return idx
}

// GatherSlab writes the safety-slab members of plane u — exactly the cells
// VisitPlaneIntersection(u, ...) visits with the index's band, in the same
// ascending cell order — into cells, with their blended outlet temperatures
// in outs (each at least s.Cells() long), and returns the member count. The
// CPU criterion comparisons and both temperature blends are bit-identical to
// the scalar visitor's; only the set of cells *inspected* shrinks, to the
// plane's segment candidates (plus a full sweep when the plane extrapolates
// off the utilization axis, where envelopes no longer bound the blend).
func (s *Space) GatherSlab(idx *SegmentIndex, u float64, cells []int32, outs []float64) (int, error) {
	if u < 0 || u > 1 {
		return 0, errOutsideUnit(u)
	}
	t := s.tabs
	iu, tx := numeric.Cell(t.uAxis, u)
	w0, w1 := 1-tx, tx
	lo, hi := idx.lo, idx.hi
	n, walked := 0, 0
	if tx < 0 || tx > 1 {
		walked = t.cells
		for c := 0; c < t.cells; c++ {
			base := c*t.nu + iu
			if ct := w0*t.tcpu[base] + w1*t.tcpu[base+1]; ct >= lo && ct <= hi {
				cells[n] = int32(c)
				outs[n] = w0*t.tout[base] + w1*t.tout[base+1]
				n++
			}
		}
	} else {
		walked = len(idx.cands[iu])
		for _, c := range idx.cands[iu] {
			base := int(c)*t.nu + iu
			if ct := w0*t.tcpu[base] + w1*t.tcpu[base+1]; ct >= lo && ct <= hi {
				cells[n] = c
				outs[n] = w0*t.tout[base] + w1*t.tout[base+1]
				n++
			}
		}
	}
	s.observeBatchScan(1, walked)
	return n, nil
}

// GatherBelow writes the plane-u cells whose blended CPU temperature is at or
// below hi — the serial safety-fallback pass's candidates, ascending — into
// cells/outs (each at least s.Cells() long) and returns the count. It sweeps
// every cell, exactly as the scalar fallback does; callers reach it only for
// the (rare) planes whose slab came back empty.
func (s *Space) GatherBelow(u float64, hi units.Celsius, cells []int32, outs []float64) (int, error) {
	if u < 0 || u > 1 {
		return 0, errOutsideUnit(u)
	}
	t := s.tabs
	iu, tx := numeric.Cell(t.uAxis, u)
	w0, w1 := 1-tx, tx
	h := float64(hi)
	n := 0
	for c := 0; c < t.cells; c++ {
		base := c*t.nu + iu
		if ct := w0*t.tcpu[base] + w1*t.tcpu[base+1]; ct <= h {
			cells[n] = int32(c)
			outs[n] = w0*t.tout[base] + w1*t.tout[base+1]
			n++
		}
	}
	s.observeBatchScan(1, t.cells)
	return n, nil
}

// CellSetting returns the (flow, inlet) coordinates of a flat candidate-cell
// index — the cooling setting a batch argmax over that cell resolves to. The
// values are the exact axis floats the scalar visitors put in Point.Flow and
// Point.Inlet.
func (s *Space) CellSetting(cell int) (units.LitersPerHour, units.Celsius) {
	t := s.tabs
	return units.LitersPerHour(t.flow[cell]), units.Celsius(t.inlet[cell])
}
