package sched

import (
	"fmt"
	"math"
	"slices"

	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/units"
)

// This file is the controller's one decision implementation: where the
// seed formulation runs Steps 1-3 and the per-server evaluation one
// circulation at a time through trilinear look-up calls, DecideBatchCold
// takes a whole *column* of utilizations partitioned into groups (one group
// per circulation) and processes them in column passes:
//
//  1. reduce every group to its plane utilization and quantized key,
//     interning the key so each group records its distinct-plane index,
//  2. resolve every distinct plane once with resolvePlane, the fused kernel
//     over the packed slab rows of the space's SegmentIndex
//     (lookup.SlabRows) that also serves Choose: the band filter, the
//     outlet blend and the power argmax in one pass, hottest outlet first,
//     that stops at a proven power bound, rerun over the whole plane for
//     the safety fallback,
//  3. scatter settings back to groups and evaluate the per-server outputs
//     and the plane's outlet temperature with the flattened-stencil kernels
//     (lookup.BatchEval) at the decided cell.
//
// The intern table is the decision path's only memo, and it lives for one
// call: no decision carries over to the next interval. A resolved plane
// costs a few slab rows (EXPERIMENTS.md § Early-exit miss scan), less than
// a cross-interval table's probe and upkeep did.
//
// Every step replicates the seed's operation sequence exactly — same
// comparisons, same blend order, same argmax outcome (the greatest power,
// the lowest cell among ties: the seed's first strictly greater in
// cell-ascending order), same error messages — so the results are
// bit-identical to the seed formulation for any input. This package's
// equivalence suites and fuzzer pin that contract against referees kept in
// test code (referee_test.go).

// Range addresses one decision group — a circulation's servers — inside a
// flat utilization column: the half-open window [Lo, Hi). Windows may
// overlap; each group is decided independently.
type Range struct {
	Lo, Hi int
}

// GroupError attributes a DecideBatchCold failure to the lowest-indexed
// group that failed. Err is exactly the error Decide returns for that group's
// slice, so unwrapping recovers the single-circulation behavior (errors.Is/As
// see through the wrapper).
type GroupError struct {
	Group int
	Err   error
}

func (e GroupError) Error() string { return fmt.Sprintf("group %d: %v", e.Group, e.Err) }
func (e GroupError) Unwrap() error { return e.Err }

// BatchScratch is the reusable working set of DecideBatchCold: the per-group
// reduction arrays, the key table, the per-plane outcomes, the scan's
// full-plane rows and the per-server temperature rows. A BatchScratch may
// be reused across calls by one goroutine at a time (the engine keeps one
// per shard); the zero value is ready to use. Once it has grown to a group
// shape, a DecideBatchCold over that shape performs zero allocations,
// whatever the planes.
type BatchScratch struct {
	// Per-group state, len(ranges) wide.
	planeU []float64 // raw (unquantized) plane utilization — what Decision.PlaneU reports
	gErrs  []error   // per-group reduction/validation failure, serial message
	gUniq  []int32   // index of the group's key in uniq; valid only where gErrs[g] == nil

	// slots is the open-addressing table intern uses to find a key's index
	// in uniq: a power of two at least twice the group count wide, each
	// slot 0 (empty) or a uniq index plus one. shift turns the key's
	// Fibonacci hash into a slot.
	slots []int32
	shift uint

	// Per-unique-key state, one entry per distinct key among the valid
	// groups, in order of first appearance: the key (the quantized plane's
	// bits) and the plane's resolved outcome.
	uniq     []uint64
	uSetting []Setting
	uCell    []int32
	uErr     []error

	// plane holds a whole plane's packed rows, Space.Cells() wide, for the
	// scan's rare full-plane passes (the safety fallback and planes off
	// a custom utilization axis); allocated on first use.
	plane []lookup.SlabRow

	// Per-server temperature rows for the scatter phase, widest-group wide.
	cpuT, outT []float64

	// loc is the column-location scratch of the per-server evaluations.
	loc lookup.BatchLoc
}

// resize returns s with exactly n zeroed elements, reusing capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growGroups sizes the per-group arrays and empties the key table.
func (bs *BatchScratch) growGroups(n int) {
	bs.planeU = resize(bs.planeU, n)
	bs.gErrs = resize(bs.gErrs, n)
	bs.gUniq = resize(bs.gUniq, n)
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	bs.slots = resize(bs.slots, 1<<bits)
	bs.shift = 64 - bits
	bs.uniq = bs.uniq[:0]
}

// intern returns key's index in uniq, appending the key on its first
// appearance. The table is at most half full, so the linear probe is short.
func (bs *BatchScratch) intern(key uint64) int32 {
	mask := uint64(len(bs.slots) - 1)
	for h := (key * 0x9E3779B97F4A7C15) >> bs.shift; ; h = (h + 1) & mask {
		s := bs.slots[h]
		if s == 0 {
			bs.uniq = append(bs.uniq, key)
			bs.slots[h] = int32(len(bs.uniq))
			return int32(len(bs.uniq) - 1)
		}
		if bs.uniq[s-1] == key {
			return s - 1
		}
	}
}

// growUnique sizes the per-unique-key arrays.
func (bs *BatchScratch) growUnique(n int) {
	bs.uSetting = resize(bs.uSetting, n)
	bs.uCell = resize(bs.uCell, n)
	bs.uErr = resize(bs.uErr, n)
}

// growServers sizes the per-server temperature rows.
func (bs *BatchScratch) growServers(n int) {
	if cap(bs.cpuT) < n {
		bs.cpuT = make([]float64, n)
		bs.outT = make([]float64, n)
	}
	bs.cpuT = bs.cpuT[:n]
	bs.outT = bs.outT[:n]
}

// DecideBatchCold runs one control interval for every group of the column at
// once, against the TEG cold-side temperature cold — the per-interval value
// of the facility environment: col holds the concatenated raw per-server
// utilizations, ranges addresses each group's window, and the g-th Decision
// is written to out[g] with its per-server slices aliasing scratches[g]
// (exactly as Decide aliases its Scratch). Results are bit-identical to
// deciding each group alone; distinct planes are scanned once per column
// instead of once per group. The call adds one decision per group it
// decides to the controller's calls, and to its hits each group whose
// plane an earlier group of the call resolved.
//
// On failure the error is a GroupError attributing the lowest-indexed failed
// group with the exact single-group error; out entries for groups before it
// are valid, the rest are unspecified. The three slice arguments must all be
// len(ranges); each scratch must be non-nil.
func (c *Controller) DecideBatchCold(col []float64, ranges []Range, scheme Scheme, cold units.Celsius, bs *BatchScratch, scratches []*Scratch, out []Decision) error {
	if len(scratches) != len(ranges) || len(out) != len(ranges) {
		return fmt.Errorf("sched: DecideBatchCold buffers: %d ranges, %d scratches, %d decisions", len(ranges), len(scratches), len(out))
	}
	for g, r := range ranges {
		if r.Lo < 0 || r.Hi > len(col) || r.Lo > r.Hi {
			return fmt.Errorf("sched: DecideBatchCold range %d [%d,%d) outside column of %d servers", g, r.Lo, r.Hi, len(col))
		}
		if scratches[g] == nil {
			return fmt.Errorf("sched: DecideBatchCold scratch %d is nil", g)
		}
	}

	// Phase 1: reduce each group to its plane and key, and intern the key.
	// Validation follows the serial sequence exactly: empty/unknown-scheme
	// from PlaneUtilization first, then Choose's unit-interval check on the
	// raw plane, then quantization.
	bs.growGroups(len(ranges))
	for g, r := range ranges {
		planeU, err := PlaneUtilization(col[r.Lo:r.Hi], scheme)
		if err != nil {
			bs.gErrs[g] = err
			continue
		}
		bs.planeU[g] = planeU
		if planeU < 0 || planeU > 1 {
			bs.gErrs[g] = errUtilizationOutsideUnit(planeU)
			continue
		}
		bs.gUniq[g] = bs.intern(math.Float64bits(c.quantizePlane(planeU)))
	}
	c.observeBatch(len(ranges), len(bs.uniq))

	// Phase 2: resolve every distinct plane with the fused slab-row kernel.
	// Its argmax breaks ties on the lowest cell, so it picks the exact
	// setting the seed's two-pass scan in cell order picks, whatever order
	// it visits the rows in. A plane that finds no safe setting keeps its
	// error in uErr, for the first group deciding it to report.
	bs.growUnique(len(bs.uniq))
	c.resolvePlanes(bs, cold)

	// Phase 3: scatter in group order, counting the decisions and
	// evaluating the per-server outputs with the batch kernels. uniq is in
	// the groups' order of first appearance, so a group is the first to
	// decide its plane exactly when its index is the next fresh one; every
	// other group's plane was resolved for an earlier group, which makes it
	// a hit. The counts reach the shared counters once per call, on the
	// error returns too.
	var calls, fresh uint64
	defer func() { c.addDecisionCounts(0, calls, calls-fresh) }()
	spec := c.Space.Spec()
	pa, ps, po := spec.PowerLogCoeff, spec.PowerLogShift, spec.PowerOffset
	for g, r := range ranges {
		if bs.gErrs[g] != nil {
			return GroupError{Group: g, Err: bs.gErrs[g]}
		}
		j := bs.gUniq[g]
		calls++
		if uint64(j) == fresh {
			fresh++
			if err := bs.uErr[j]; err != nil {
				return GroupError{Group: g, Err: err}
			}
		}
		c.observeChoice(bucketOf(bs.uniq[j]), bs.uSetting[j])

		// The decision's fields are written straight into its slot.
		n := r.Hi - r.Lo
		sc := scratches[g]
		sc.grow(n)
		d := &out[g]
		d.Scheme = scheme
		d.PlaneU = bs.planeU[g]
		d.Setting = bs.uSetting[j]
		d.PerServerPower = sc.power
		d.PerServerCPUPower = sc.cpuPower
		// The decided setting is the cell's grid-aligned {flow, inlet}, so
		// the per-server trilinear lookups collapse to one column location
		// plus a two-term blend per server at the cell, and the curve
		// reproduces PowerAt bit for bit. Original evaluates every server at
		// its own utilization. Balancing makes every server identical at the
		// plane mean, so LoadBalance evaluates that one utilization — the
		// mean phase 1 already computed — and broadcasts.
		eff := col[r.Lo:r.Hi]
		if scheme == LoadBalance {
			eff = bs.planeU[g : g+1]
		}
		m := len(eff)
		cell := int(bs.uCell[j])
		bs.growServers(m)
		c.Space.LocateColumn(eff, &bs.loc)
		c.Space.BatchEval(cell, &bs.loc, bs.cpuT, bs.outT)
		c.curve.powerAtColumn(cell, bs.outT, d.PerServerPower[:m], float64(cold))
		cpuPowerColumn(pa, ps, po, eff, d.PerServerCPUPower[:m])
		var maxT units.Celsius
		for i := range m {
			if t := units.Celsius(bs.cpuT[i]); t > maxT {
				maxT = t
			}
		}
		d.MaxCPUTemp = maxT
		for i := m; i < n; i++ {
			d.PerServerPower[i] = d.PerServerPower[0]
			d.PerServerCPUPower[i] = d.PerServerCPUPower[0]
		}
		// The plane utilization is one of the evaluated servers': the column
		// maximum under Original, the broadcast mean under LoadBalance.
		d.PlaneOutlet = units.Celsius(bs.outT[slices.Index(eff, d.PlaneU)])
	}
	return nil
}

// cpuPowerColumn writes each utilization's CPU draw (Eq. 20) to dst:
// cpu.Spec.Power's operation sequence with its coefficients (pa, ps, po:
// PowerLogCoeff, PowerLogShift, PowerOffset) hoisted out of the loop, as
// powerAtColumn hoists Eq. 6's, so every output is bit-identical to
// Spec.Power, which is too costly for the compiler to inline into a loop.
func cpuPowerColumn(pa, ps, po float64, us []float64, dst []units.Watts) {
	for i, u := range us {
		dst[i] = units.Watts(pa*math.Log(units.Clamp(u, 0, 1)+ps) + po)
	}
}

// resolvePlanes resolves every distinct plane of the call into the unique
// arrays with resolvePlane, fetching the space's SegmentIndex for the band
// once per call. A plane that finds no safe setting records its error in
// uErr.
func (c *Controller) resolvePlanes(bs *BatchScratch, cold units.Celsius) {
	idx := c.Space.SegmentIndex(c.TSafe-c.Band, c.TSafe+c.Band)
	var evals uint64
	for j, key := range bs.uniq {
		setting, _, cell, visited, err := c.resolvePlane(idx, math.Float64frombits(key), cold, &bs.plane)
		evals += uint64(visited)
		if err != nil {
			bs.uErr[j] = err
			continue
		}
		bs.uSetting[j], bs.uCell[j] = setting, cell
	}
	if m := c.met; m != nil {
		m.curveEvals.Add(evals)
	}
}

// resolvePlane runs Steps 1-3 for the plane u against the cold side cold:
// the one implementation behind every Choose and every distinct plane of a
// DecideBatchCold call. idx must be the space's SegmentIndex for
// [TSafe-Band, TSafe+Band]; buf holds the plane's packed rows for the rare
// full-plane passes and is grown on first use.
//
// The fused kernel streams the plane's slab rows from idx — only the cells
// whose stencil envelope can intersect the band, a small fraction of the
// plane — hottest outlet first, filtering, blending and folding the power
// argmax in one pass that stops once no later row can beat the best. A
// plane with an empty slab reruns the kernel over the whole plane, to its
// end, with the band [-Inf, TSafe+Band]: the safety fallback, every setting
// keeping the die at or below TSafe+Band. A plane with no safe setting even
// then fails with errNoSafeSetting. It returns the setting, its power, its
// flat cell index and the number of rows the kernel visited, on failure
// too.
func (c *Controller) resolvePlane(idx *lookup.SegmentIndex, u float64, cold units.Celsius, buf *[]lookup.SlabRow) (Setting, units.Watts, int32, int, error) {
	if c.Band <= 0 {
		return Setting{}, 0, 0, 0, lookup.ErrBandNotPositive
	}
	lo, hi := float64(c.TSafe-c.Band), float64(c.TSafe+c.Band)
	rows, w0, w1, sorted := c.Space.SlabRows(idx, u, buf)
	n, visited, bestP, bestCell := c.curve.scanRows(rows, w0, w1, lo, hi, float64(cold), sorted)
	if n == 0 {
		rows, w0, w1 = c.Space.PlaneRows(u, buf)
		var v int
		n, v, bestP, bestCell = c.curve.scanRows(rows, w0, w1, math.Inf(-1), hi, float64(cold), false)
		visited += v
	}
	if n == 0 {
		return Setting{}, 0, 0, visited, errNoSafeSetting(u)
	}
	flow, inlet := c.Space.CellSetting(int(bestCell))
	return Setting{Flow: flow, Inlet: inlet}, bestP, bestCell, visited, nil
}
