package lookup

import (
	"cmp"
	"math"
	"slices"

	"github.com/h2p-sim/h2p/internal/units"
)

// This file is the batch face of the candidate tables: the kernels here
// serve the controller's column passes. LocateColumn and BatchEval evaluate
// a whole column of utilizations at one decided cell, and the segment index
// packs, per utilization segment, the rows the miss-scan kernel streams.
//
// Bit-identity contract: every number produced here reproduces the
// trilinear look-up (Space.At) exactly. Each utilization is located with
// numeric.Cell's (segment, weight) and blended as w0*t0 + w1*t1, which is
// Grid3D.Eval's operation sequence at the grid-aligned flow/inlet
// coordinates of a candidate cell (the collapsed axes contribute exact 0/1
// weights). Row order is not part of the contract: segment rows run hottest
// outlet first (SlabRow.OutletMax, descending, ties in ascending cell order)
// so a power argmax can stop early, and full-plane rows run in
// PlaneIntersection's ascending (flow-major) cell order. A consumer that
// needs the seed's first-in-cell-order tie-break breaks ties on the cell.

// BatchLoc holds the precomputed utilization-axis locations of one column of
// utilizations — the struct-of-arrays (stencil index, blend weights) triple
// per element. A BatchLoc may be reused across calls by one goroutine at a
// time (the engine keeps one per worker); the zero value is ready to use.
type BatchLoc struct {
	n      int
	iu     []int32
	w0, w1 []float64
}

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

// LocateColumn precomputes the utilization-axis stencil location of every
// element of us into l: the lower stencil index and the two linear blend
// weights. It performs no range validation — the location clamps to the
// boundary cell, so out-of-range utilizations extrapolate exactly as
// Grid3D.Eval does, which keeps BatchEval bit-identical to the scalar
// CPUTemp/OutletTemp calls for any input.
func (s *Space) LocateColumn(us []float64, l *BatchLoc) {
	t := s.tabs
	l.grow(len(us))
	for i, u := range us {
		iu, tx := t.locate(u)
		l.iu[i] = int32(iu)
		l.w0[i] = 1 - tx
		l.w1[i] = tx
	}
}

// BatchEval blends the CPU and outlet temperatures of one candidate cell at
// every located element of l, writing into cpuT and out (each at least as
// long as the located column). For a column located by LocateColumn the
// results are bit-identical to calling CPUTemp/OutletTemp element-wise at
// the cell's (grid-aligned) flow and inlet coordinates: the collapsed
// flow/inlet axes contribute exact 0/1 trilinear weights, so Grid3D.Eval
// degenerates to the same two-term blend evaluated here.
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

// observeBatchScan records one plane's miss-scan row fetch when telemetry
// is attached: the rows handed to the kernel, of which its early exit may
// visit only a prefix.
func (s *Space) observeBatchScan(rows int) {
	if m := s.metrics(); m != nil {
		m.batchScans.Inc()
		m.batchScanPlanes.Observe(1)
		m.batchScanCells.Observe(float64(rows))
	}
}

// envelopeEps is the relative widening applied to per-segment temperature
// envelopes in buildSegmentIndex. A blend w0*t0 + w1*t1 with weights in
// [0, 1] stays within a few ulps of [min(t0,t1), max(t0,t1)]; widening by
// nine orders of magnitude more than that guarantees no cell that could pass
// an exact band comparison is ever pruned, while still excluding essentially
// every cell whose stencil lies clear of the band.
const envelopeEps = 1e-9

// SlabRow is one candidate cell's packed input to the miss-scan kernel on
// one utilization segment [a_i, a_i+1]: the cell's CPU (C0, C1) and outlet
// (O0, O1) stencil samples at the segment's two nodes, the cell's flat index
// and its flow-axis index. A plane located in the segment with weights
// (w0, w1) blends to CPU temperature w0*C0 + w1*C1 and outlet w0*O0 + w1*O1,
// bit-identical to Space.At at the plane and the cell's setting.
type SlabRow struct {
	C0, C1, O0, O1 float64
	Cell, FlowIdx  int32
}

// OutletMax returns the larger of the row's two outlet samples (NaN if
// either is NaN): every blend with weights in [0, 1] lies at or, by blend
// round-off, a few ulps above it. Segment rows are sorted on it, so a scan
// reading rows in order knows no later row runs hotter.
func (r *SlabRow) OutletMax() float64 { return max(r.O0, r.O1) }

// SegmentIndex is a precomputed pruning structure over the candidate tables:
// for every utilization-axis segment, the packed rows of the cells whose
// (ε-widened) CPU-temperature envelope over that segment intersects a fixed
// band [lo, hi]. A plane's safety-slab members are always among its
// segment's rows, so a slab scan streams the rows — typically a small
// fraction of the plane, contiguous in memory — instead of every cell's
// strided stencils, then applies the exact criterion. Each segment's rows
// are sorted by OutletMax, descending, with ties (and NaN, which sorts
// last) in ascending cell order: a row's OutletMax bounds every later row's
// outlet, which is what lets the miss scan stop at a proven power bound.
// The order depends on neither the cold side nor the TEG module, so the
// index depends only on the space and the band: the space builds it once
// per band (Space.SegmentIndex) and every controller on the space shares
// it; it is immutable after construction.
type SegmentIndex struct {
	lo, hi float64
	rows   [][]SlabRow
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

// buildSegmentIndex packs the per-segment candidate rows for the CPU
// temperature band [lo, hi]. Cost is one pass over the stencils (cells × nu)
// to count, one to pack and a sort per segment; every segment's rows share
// one allocation.
func (s *Space) buildSegmentIndex(lo, hi units.Celsius) *SegmentIndex {
	t := s.tabs
	segs := t.nu - 1
	idx := &SegmentIndex{lo: float64(lo), hi: float64(hi), rows: make([][]SlabRow, segs)}
	keep := func(c, b int) bool {
		t0, t1 := t.tcpu[c*t.nu+b], t.tcpu[c*t.nu+b+1]
		mn, mx := min(t0, t1), max(t0, t1)
		eps := envelopeEps * (math.Abs(mn) + math.Abs(mx) + 1)
		return mx+eps >= idx.lo && mn-eps <= idx.hi
	}
	total := 0
	for b := 0; b < segs; b++ {
		for c := 0; c < t.cells; c++ {
			if keep(c, b) {
				total++
			}
		}
	}
	all := make([]SlabRow, 0, total)
	for b := 0; b < segs; b++ {
		start := len(all)
		for c := 0; c < t.cells; c++ {
			if keep(c, b) {
				all = append(all, t.row(c, b))
			}
		}
		seg := all[start:len(all):len(all)]
		slices.SortStableFunc(seg, compareOutletMax)
		idx.rows[b] = seg
	}
	return idx
}

// compareOutletMax orders segment rows hottest outlet first. The rows are
// packed in ascending cell order and sorted stably, so ties keep it.
func compareOutletMax(a, b SlabRow) int { return cmp.Compare(b.OutletMax(), a.OutletMax()) }

// row packs cell c's stencil samples on utilization segment b.
func (t *candTables) row(c, b int) SlabRow {
	base := c*t.nu + b
	return SlabRow{
		C0: t.tcpu[base], C1: t.tcpu[base+1],
		O0: t.tout[base], O1: t.tout[base+1],
		Cell: int32(c), FlowIdx: int32(c / t.ni),
	}
}

// planeRows packs every cell's row on segment b into *buf, growing it to
// the plane's cell count on first use, and returns the rows.
func (t *candTables) planeRows(b int, buf *[]SlabRow) []SlabRow {
	if cap(*buf) < t.cells {
		*buf = make([]SlabRow, t.cells)
	}
	rows := (*buf)[:t.cells]
	for c := range rows {
		rows[c] = t.row(c, b)
	}
	return rows
}

// SlabRows returns the rows the miss-scan kernel filters for plane u with
// the index's band [lo, hi], and u's blend weights on them: the plane's
// safety-slab members are exactly the rows whose blended CPU temperature
// w0*C0 + w1*C1 lies in the band. For a plane inside the utilization axis
// the rows are its segment's candidates in the index's OutletMax order,
// shared and read-only, and sorted reports true; its weights then lie in
// [0, 1] (a NaN plane's are NaN and match no band). A plane that
// extrapolates off the axis (only a custom axis not spanning [0, 1] has
// such planes) is not bounded by the envelopes, so it gets every cell's row
// in cell order, packed into *buf, and sorted reports false. The caller
// validates u; NaN locates like numeric.Cell.
func (s *Space) SlabRows(idx *SegmentIndex, u float64, buf *[]SlabRow) (rows []SlabRow, w0, w1 float64, sorted bool) {
	t := s.tabs
	iu, tx := t.locate(u)
	sorted = !(tx < 0 || tx > 1)
	if sorted {
		rows = idx.rows[iu]
	} else {
		rows = t.planeRows(iu, buf)
	}
	s.observeBatchScan(len(rows))
	return rows, 1 - tx, tx, sorted
}

// PlaneRows packs every cell's row for plane u into *buf, in ascending cell
// order, and returns them with u's blend weights: the input of the safety
// fallback, which keeps the rows whose blended CPU temperature is at or
// below the band's top. Filtering them with the band [-Inf, hi] is that
// predicate bit for bit (every non-NaN temperature is >= -Inf).
func (s *Space) PlaneRows(u float64, buf *[]SlabRow) (rows []SlabRow, w0, w1 float64) {
	t := s.tabs
	iu, tx := t.locate(u)
	rows = t.planeRows(iu, buf)
	s.observeBatchScan(len(rows))
	return rows, 1 - tx, tx
}

// CellSetting returns the (flow, inlet) coordinates of a flat candidate-cell
// index — the cooling setting a batch argmax over that cell resolves to. The
// values are the exact axis floats PlaneIntersection puts in Point.Flow and
// Point.Inlet.
func (s *Space) CellSetting(cell int) (units.LitersPerHour, units.Celsius) {
	t := s.tabs
	return units.LitersPerHour(t.flow[cell]), units.Celsius(t.inlet[cell])
}
