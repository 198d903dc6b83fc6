// Incremental KPI engine: per-sector utility aggregates, a radio-change
// grid log, and deterministic sharded full scans. This is what turns the
// simwindow tick loop from O(grids) into O(changed):
//
//   - KPI aggregates. Every grid accounted under its serving sector
//     contributes (w, w·L) to the sums of the sector's bucket for its
//     rate level, L being the level's log10(rate/1000), the
//     log-utility's rate-independent part. All grids in a bucket share
//     one L, so for the default log-utility the sector's utility is the
//     exact closed form Σ over buckets with L > λ of (Σw·L − λ·Σw), where
//     λ = log10(max(load·f, 1)) — buckets at or below λ sit on the
//     utility's "any rate under 1 kbps is worth 0" clamp and contribute
//     nothing. Each sector also keeps its totals Σw and Σw·L over all
//     buckets and the smallest L added since its last rebuild: while λ
//     is below that L (the steady state — no bucket is clamped) the
//     sector prices as ΣwL − λ·Σw without walking its buckets. λ itself
//     is log10(load) + log10(f), the first term memoized per sector by
//     the load value it was read at, so a uniform whole-market load
//     swing costs one log10 per tick and a few flops per sector. The
//     buckets sit in one flat array, one per (sector, level) — 14 levels
//     per sector on LTE and 29 on UMTS — so the walk behind the clamp is
//     short and a grid finds its bucket by index. Radio changes funnel
//     through updateRate, which re-accounts exactly the touched grid
//     (subtract the old contribution, w times the L of the level it was
//     accounted at, and add the new one).
//   - Change log. setServing/updateRate record touched grids once per
//     drain cycle; DrainChangedGrids hands them over sorted ascending,
//     so a consumer summing per-grid terms over the drained set in shard
//     grouping is bit-identical to a full ascending scan with the same
//     grouping.
//   - Sharded scans. The remaining full passes (first tick, resync,
//     reference series) run over fixed grid-range shards with in-order
//     reduction — the PR 5 parallel-build pattern — so the result is
//     bit-identical for every worker count, including sequential runs.
//
// Floating-point discipline: the aggregate sums are repaired by ±w·L
// subtraction, which is not bit-neutral, so they drift by ulps per
// touched grid. Consumers bound the drift with periodic
// ResyncKPIAggregates calls (simwindow resyncs every 64 ticks and after
// a replan) and pin the incremental series to the full-scan reference
// within 1e-9 relative. A resync rebuilds only the sectors marked dirty
// since the last rebuild — every other sector already holds exactly
// what a rebuild would produce — so it is bit-identical to a full one.
// None of this state survives Clone (a clone re-derives on enable) and
// RecomputeLoads switches the aggregates off.
package netmodel

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"magus/internal/utility"
)

// Aggregate-engine evaluation modes: the log-utility closed form, the
// load-independent coverage count, and the generic served-list scan.
const (
	aggModeGeneric = iota
	aggModePerf
	aggModeCov
)

// aggBucket accumulates one sector's served weight at one rate level:
// every grid in the bucket shares the level's L, which is what makes
// the per-bucket log-utility closed-form exact on both sides of the
// 1 kbps clamp.
type aggBucket struct {
	sumW  float64 // Σ accounted base weight
	sumWL float64 // Σ w·L
}

// aggSector is one sector's aggregate summary next to its buckets.
type aggSector struct {
	totW  float64 // Σ accounted base weight over all buckets
	totWL float64 // Σ w·L over all buckets
	minL  float64 // L of the lowest level added since the last rebuild (+Inf: none)
	lg    float64 // log10 of the load lgKey holds
	lgKey float64 // the base load lg was computed from (NaN: none yet)
	// dirty marks a sector whose served list or accounting changed since
	// its last rebuild (it is then on State.aggDirty).
	dirty bool
}

// kpiShards is the fixed shard count for deterministic parallel scans.
// Fixed — not worker-derived — so the reduction order, and therefore
// the bits, cannot depend on the Workers knob.
const kpiShards = 32

// ShardBounds splits [0, n) into the fixed shard ranges used by every
// deterministic parallel scan. The partition depends only on n.
func ShardBounds(n int) [][2]int {
	ns := kpiShards
	if n < ns {
		ns = n
	}
	if ns <= 0 {
		return nil
	}
	bounds := make([][2]int, ns)
	for i := 0; i < ns; i++ {
		bounds[i] = [2]int{i * n / ns, (i + 1) * n / ns}
	}
	return bounds
}

// forEachShard runs fn(shard) for every shard index in [0, ns), fanned
// out over at most workers goroutines (sequential when workers <= 1).
// Shards are independent; the caller owns any reduction and must keep
// it in shard order for determinism.
func forEachShard(ns, workers int, fn func(si int)) {
	if workers > ns {
		workers = ns
	}
	if workers <= 1 {
		for si := 0; si < ns; si++ {
			fn(si)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				si := int(next.Add(1)) - 1
				if si >= ns {
					return
				}
				fn(si)
			}
		}()
	}
	wg.Wait()
}

// ShardSum evaluates fn over the fixed shard ranges of [0, n) and
// reduces the partials in shard order: bit-identical for every workers
// value. fn must be safe for concurrent calls on disjoint ranges.
func ShardSum(n, workers int, fn func(lo, hi int) float64) float64 {
	bounds := ShardBounds(n)
	parts := make([]float64, len(bounds))
	forEachShard(len(bounds), workers, func(si int) {
		parts[si] = fn(bounds[si][0], bounds[si][1])
	})
	total := 0.0
	for _, p := range parts {
		total += p
	}
	return total
}

// UtilityScan evaluates the overall utility with Utility's per-grid sum
// sharded over fixed grid ranges and reduced in shard order. Read-only,
// deterministic for every workers value. This is the retained full-scan
// reference the incremental KPIUtility is pinned against.
func (s *State) UtilityScan(u utility.Func, workers int) float64 {
	lam := s.lambdas(u, nil)
	return ShardSum(s.Model.Grid.NumCells(), workers, func(lo, hi int) float64 {
		return s.utilitySum(u, lam, lo, hi)
	})
}

// EnableKPIAggregates builds the per-sector utility aggregates for u
// with one sharded full accounting pass and keeps them repaired
// incrementally from then on. A no-op when already live for the same
// objective. The aggregates do not survive Clone, and
// RecomputeLoads/AssignUsers* switch them off (the weights underneath
// the sums changed wholesale).
func (s *State) EnableKPIAggregates(u utility.Func, workers int) {
	if s.aggOn && s.aggFn.Name == u.Name {
		return
	}
	if s.aggSec == nil {
		n := s.Model.Grid.NumCells()
		s.aggSec = make([]int32, n)
		s.aggW = make([]float64, n)
		s.aggLvl = make([]uint8, n)
		s.aggBk = make([]aggBucket, s.Model.Net.NumSectors()*len(s.Model.levels))
		s.aggSt = make([]aggSector, s.Model.Net.NumSectors())
		for b := range s.aggSt {
			s.aggSt[b].lgKey = math.NaN()
		}
	}
	s.aggFn = u
	switch u.Name {
	case utility.Performance.Name:
		s.aggMode = aggModePerf
	case utility.Coverage.Name:
		s.aggMode = aggModeCov
	default:
		s.aggMode = aggModeGeneric
	}
	s.aggOn = true
	s.rebuildKPIAggregates(workers)
}

// KPIAggregatesOn reports whether the aggregate engine is live.
func (s *State) KPIAggregatesOn() bool { return s.aggOn }

// rebuildKPIAggregates derives every sector's aggregates from scratch.
// The per-grid accounting is reset over fixed grid shards, then each
// sector rebuilds from its served-grid list — whole sectors per worker,
// so the per-sector summation order (and therefore the bits) cannot
// depend on the workers value.
func (s *State) rebuildKPIAggregates(workers int) {
	m := s.Model
	gb := ShardBounds(m.Grid.NumCells())
	forEachShard(len(gb), workers, func(si int) {
		for g := gb[si][0]; g < gb[si][1]; g++ {
			s.aggSec[g] = -1
		}
	})
	sb := ShardBounds(m.Net.NumSectors())
	forEachShard(len(sb), workers, func(si int) {
		for b := sb[si][0]; b < sb[si][1]; b++ {
			s.rebuildSector(b)
		}
	})
	s.aggDirty = s.aggDirty[:0]
}

// ResyncKPIAggregates clears accumulated floating-point repair drift by
// rebuilding every sector marked dirty since its last rebuild: the dirty
// list is sorted ascending and split into fixed shards fanned out over
// workers. A clean sector's served list, buckets and totals are
// untouched since it was built, so skipping it leaves the same bits a
// full rebuild would.
func (s *State) ResyncKPIAggregates(workers int) {
	if !s.aggOn || len(s.aggDirty) == 0 {
		return
	}
	dirty := s.aggDirty
	slices.Sort(dirty)
	db := ShardBounds(len(dirty))
	forEachShard(len(db), workers, func(si int) {
		for _, b := range dirty[db[si][0]:db[si][1]] {
			s.rebuildSector(int(b))
		}
	})
	s.aggDirty = dirty[:0]
}

// rebuildSector re-derives sector b's buckets, totals and the per-grid
// accounting of its served grids from its served-grid list, in list
// order. Every grid accounted under b is on that list, so the rebuild
// touches no other sector's state.
func (s *State) rebuildSector(b int) {
	st := &s.aggSt[b]
	st.totW, st.totWL, st.minL = 0, 0, math.Inf(1)
	st.dirty = false
	clear(s.buckets(b))
	for _, g := range s.servedList[b] {
		s.aggAccount(int32(b), int(g))
	}
}

// buckets returns sector b's buckets, indexed by rate level.
func (s *State) buckets(b int) []aggBucket {
	n := len(s.Model.levels)
	return s.aggBk[b*n : (b+1)*n]
}

// aggAccount accounts grid g under sector b at its current weight and
// rate level, or marks it unaccounted when it has no users or no rate.
func (s *State) aggAccount(b int32, g int) {
	w, k := s.Model.ue[g], s.level[g]
	if w == 0 || k == 0 {
		s.aggSec[g] = -1
		return
	}
	l := s.Model.levels[k].l
	wl := w * l
	bk := &s.buckets(int(b))[k]
	bk.sumW += w
	bk.sumWL += wl
	st := &s.aggSt[b]
	st.totW += w
	st.totWL += wl
	st.minL = min(st.minL, l)
	s.aggSec[g] = b
	s.aggW[g] = w
	s.aggLvl[g] = k
}

// markAggDirty queues sector b for the next resync.
func (s *State) markAggDirty(b int32) {
	if st := &s.aggSt[b]; !st.dirty {
		st.dirty = true
		s.aggDirty = append(s.aggDirty, b)
	}
}

// KPIUtility returns the overall utility under the aggregate engine's
// objective, recomputed in O(sectors) from the per-sector aggregates at
// the model's current uniform load factor. EnableKPIAggregates must be
// live. It can differ from UtilityScan by floating-point rounding only
// (different association), bounded by the resync cadence. It refreshes
// the per-sector log10(load) memo, so unlike UtilityScan it is not safe
// for concurrent use.
//
// Under the log-utility a sector whose λ sits below the smallest L
// added since its rebuild (minL) has no bucket on the 1 kbps clamp and
// prices from its totals as ΣwL − λ·Σw; otherwise its buckets are
// walked.
func (s *State) KPIUtility() float64 {
	f := s.Model.ueFactor
	total := 0.0
	if s.aggMode == aggModePerf {
		lf := math.Log10(f)
		for b := range s.aggSt {
			st := &s.aggSt[b]
			if lam := st.lambda(s.load[b], lf); lam < st.minL {
				total += (st.totWL - lam*st.totW) * f
			} else {
				total += s.walkBuckets(b, lam) * f
			}
		}
		return total
	}
	for b := range s.aggSt {
		total += s.kpiSectorUtil(b, f)
	}
	return total
}

// lambda returns the sector's λ (lambdaOf) at base load ld and
// lf = log10(f), refreshing the log10(load) memo when the load moved
// since it was computed.
func (st *aggSector) lambda(ld, lf float64) float64 {
	if ld != st.lgKey {
		st.setLoad(ld)
	}
	return lambdaOf(st.lg, lf)
}

// setLoad refreshes the log10(load) memo, out of line so lambda inlines
// into KPIUtility's loop.
//
//go:noinline
func (st *aggSector) setLoad(ld float64) {
	st.lgKey = ld
	st.lg = logLoad(ld)
}

// walkBuckets prices sector b at λ = lam bucket by bucket, in level
// order and base units: buckets at or below λ sit on the clamp and are
// worth exactly zero, and a bucket nothing was added to adds +0.
func (s *State) walkBuckets(b int, lam float64) float64 {
	sum := 0.0
	for k, bk := range s.buckets(b) {
		if s.Model.levels[k].l > lam {
			sum += bk.sumWL - lam*bk.sumW
		}
	}
	return sum
}

// kpiSectorUtil prices one sector under the other objectives: Σw for
// coverage, and an exact served-list scan for any other objective.
func (s *State) kpiSectorUtil(b int, f float64) float64 {
	if s.aggMode == aggModeCov {
		sum := 0.0
		for _, bk := range s.buckets(b) {
			sum += bk.sumW
		}
		return sum * f
	}
	// Generic objective: exact per-grid pass over the sector's served
	// grids at the effective per-UE rate.
	n := s.load[b] * f
	if n < 1 {
		n = 1
	}
	u := s.aggFn.U
	sum := 0.0
	for _, g := range s.servedList[b] {
		if w := s.Model.ue[g]; w != 0 && s.level[g] != 0 {
			sum += w * u(s.Model.levels[s.level[g]].rate/n)
		}
	}
	return sum * f
}

// aggReaccount re-accounts grid g after its serving sector, rate level
// or base weight changed: its old contribution, the accounted weight
// times the accounted level's L (the product it added, bit for bit), is
// subtracted from its old bucket and sector totals and the current one
// added to the new, so the repair costs O(1) per touched grid. Both
// sectors are marked for the next resync.
func (s *State) aggReaccount(g int) {
	if b := s.aggSec[g]; b >= 0 {
		w, k := s.aggW[g], s.aggLvl[g]
		wl := w * s.Model.levels[k].l
		bk := &s.buckets(int(b))[k]
		bk.sumW -= w
		bk.sumWL -= wl
		st := &s.aggSt[b]
		st.totW -= w
		st.totWL -= wl
		s.markAggDirty(b)
		s.aggSec[g] = -1
	}
	if b := s.bestSec[g]; b >= 0 {
		s.aggAccount(b, g)
		if s.aggSec[g] >= 0 {
			s.markAggDirty(b)
		}
	}
}

// NoteUsersScaledAt repairs the state's per-sector loads and KPI
// aggregates after Model.ScaleUsersAt(grids, factor) rescaled the base
// weights of the given grids — call it on every live state over the
// model, after the model call, instead of a full RecomputeLoads. The
// old weight is recovered as w/factor: the ulp-level residue against
// the exact pre-scale value is bounded per event and cleared by the
// next resync or RecomputeLoads.
func (s *State) NoteUsersScaledAt(grids []int, factor float64) {
	m := s.Model
	for _, g := range grids {
		w := m.ue[g]
		old := w / factor
		if b := s.bestSec[g]; b >= 0 {
			s.load[b] += w - old
		}
		if s.aggOn {
			s.aggReaccount(g)
		}
	}
}

// EnableChangeLog starts recording the grids whose radio state (serving
// sector, SINR or max rate) is touched by subsequent changes: updateRate
// sets grid g's bit in a one-bit-per-grid set, so each grid is recorded
// at most once per drain cycle. Like the aggregates, the log does not
// survive Clone.
func (s *State) EnableChangeLog() {
	if s.changed == nil {
		s.changed = make([]uint64, (s.Model.Grid.NumCells()+63)/64)
	}
}

// DrainChangedGrids appends the logged grids to buf in ascending order,
// clears the log, and returns the extended slice. The ascending order
// is what lets a consumer's per-grid sum over the drained set match a
// full ascending scan bit for bit; walking the bitset word by word gives
// it without a sort.
func (s *State) DrainChangedGrids(buf []int32) []int32 {
	for w, word := range s.changed {
		if word == 0 {
			continue
		}
		s.changed[w] = 0
		for ; word != 0; word &= word - 1 {
			buf = append(buf, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return buf
}
