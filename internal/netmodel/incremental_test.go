package netmodel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"magus/internal/config"
	"magus/internal/utility"
)

// relClose reports |a-b| within tol relative to the magnitudes.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// checkAgg asserts the aggregate engine's utility agrees with the
// sharded full-scan reference and the in-order scan.
func checkAgg(t *testing.T, s *State, u utility.Func, where string) {
	t.Helper()
	got := s.KPIUtility()
	ref := s.UtilityScan(u, 1)
	if !relClose(got, ref, 1e-9) {
		t.Fatalf("%s: KPIUtility %.12f != UtilityScan %.12f", where, got, ref)
	}
	if read := s.Utility(u); !relClose(ref, read, 1e-9) {
		t.Fatalf("%s: UtilityScan %.12f != Utility %.12f", where, ref, read)
	}
}

// TestKPIAggregatesTrackChanges walks the aggregate engine through the
// event kinds the simulator generates — power moves, tilt moves, sector
// off/on, uniform load swings, localized surges — checking the
// O(sectors) read against the full scan after every one.
func TestKPIAggregatesTrackChanges(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	s.EnableKPIAggregates(utility.Performance, 2)
	if !s.KPIAggregatesOn() {
		t.Fatal("aggregates not on after enable")
	}
	checkAgg(t, s, utility.Performance, "initial")

	steps := []config.Change{
		{Sector: 0, PowerDelta: -3},
		{Sector: 5, TiltDelta: 2},
		{Sector: 2, TurnOff: true},
		{Sector: 9, PowerDelta: 2},
		{Sector: 2, TurnOn: true},
	}
	for i, ch := range steps {
		if _, err := s.Apply(ch); err != nil {
			t.Fatalf("apply %v: %v", ch, err)
		}
		checkAgg(t, s, utility.Performance, "after step "+itoa(i))
	}

	// Uniform load swings fold into the factor: no state repair at all.
	for _, f := range []float64{1.8, 0.3, 2.5} {
		m.ScaleUsers(f)
		checkAgg(t, s, utility.Performance, "after uniform scale")
	}

	// Localized surge: base weights change under the state; the note
	// repairs loads and aggregates in O(touched).
	grids := servedGridsOf(s, 4)
	if len(grids) == 0 {
		t.Fatal("sector 4 serves no grids")
	}
	m.ScaleUsersAt(grids, 2.5)
	s.NoteUsersScaledAt(grids, 2.5)
	checkAgg(t, s, utility.Performance, "after surge")
	m.ScaleUsersAt(grids, 1/2.5)
	s.NoteUsersScaledAt(grids, 1/2.5)
	checkAgg(t, s, utility.Performance, "after surge expiry")

	// Resync clears repair drift and must not move the value materially.
	before := s.KPIUtility()
	s.ResyncKPIAggregates(2)
	if !relClose(before, s.KPIUtility(), 1e-9) {
		t.Fatalf("resync moved the utility: %.12f -> %.12f", before, s.KPIUtility())
	}
}

// servedGridsOf lists the grids sector b currently serves.
func servedGridsOf(s *State, b int) []int {
	var out []int
	for g := 0; g < s.Model.Grid.NumCells(); g++ {
		if s.ServingSector(g) == b {
			out = append(out, g)
		}
	}
	return out
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestKPIAggregatesObjectives exercises the three evaluation modes:
// coverage (load-independent Σw), the generic served-list fallback
// (sum-rate), and the log-utility clamp fallback under extreme load.
func TestKPIAggregatesObjectives(t *testing.T) {
	m := testModel(t)

	t.Run("coverage", func(t *testing.T) {
		s := baseline(t, m)
		s.EnableKPIAggregates(utility.Coverage, 1)
		checkAgg(t, s, utility.Coverage, "initial")
		s.MustApply(config.Change{Sector: 3, TurnOff: true})
		checkAgg(t, s, utility.Coverage, "after off")
		m.ScaleUsers(0.5)
		checkAgg(t, s, utility.Coverage, "after scale")
	})

	t.Run("generic", func(t *testing.T) {
		s := baseline(t, m)
		s.EnableKPIAggregates(utility.SumRate, 1)
		checkAgg(t, s, utility.SumRate, "initial")
		s.MustApply(config.Change{Sector: 1, PowerDelta: -4})
		checkAgg(t, s, utility.SumRate, "after power")
		m.ScaleUsers(3)
		checkAgg(t, s, utility.SumRate, "after scale")
	})

	t.Run("clamp-fallback", func(t *testing.T) {
		// A huge uniform factor drives per-UE rates below the log
		// utility's 1 kbps clamp, so the closed form's λ ≤ minL guard
		// fails and every sector takes the exact served-list path.
		s := baseline(t, m)
		s.EnableKPIAggregates(utility.Performance, 1)
		m.ScaleUsers(1e6)
		checkAgg(t, s, utility.Performance, "under clamp")
		m.ScaleUsers(1e-6)
		checkAgg(t, s, utility.Performance, "after unwind")
	})

	t.Run("re-enable-switches-objective", func(t *testing.T) {
		s := baseline(t, m)
		s.EnableKPIAggregates(utility.Performance, 1)
		s.EnableKPIAggregates(utility.Coverage, 1)
		checkAgg(t, s, utility.Coverage, "after switch")
	})
}

// TestKPIAggregatesOffSwitches: wholesale rewrites of the weights or
// loads must disable the aggregates rather than leave stale sums live,
// and clones must not inherit them.
func TestKPIAggregatesOffSwitches(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	s.EnableKPIAggregates(utility.Performance, 1)

	if c := s.Clone(); c.KPIAggregatesOn() {
		t.Fatal("clone inherited live aggregates")
	}
	s.RecomputeLoads()
	if s.KPIAggregatesOn() {
		t.Fatal("RecomputeLoads left aggregates on")
	}
	s.EnableKPIAggregates(utility.Performance, 1)
	s.AssignUsersUniform()
	if s.KPIAggregatesOn() {
		t.Fatal("AssignUsersUniform left aggregates on")
	}
}

// TestNoteUsersScaledAtLoads pins the O(touched) load repair against a
// from-scratch rebuild.
func TestNoteUsersScaledAtLoads(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	grids := servedGridsOf(s, 7)
	m.ScaleUsersAt(grids, 1.7)
	s.NoteUsersScaledAt(grids, 1.7)

	ref := s.Clone()
	ref.RecomputeLoads()
	for b := range m.Net.Sectors {
		if !relClose(s.Load(b), ref.Load(b), 1e-9) {
			t.Fatalf("sector %d: repaired load %.12f != rebuilt %.12f", b, s.Load(b), ref.Load(b))
		}
	}
}

// TestChangeLogDrain: the log records each touched grid once per drain
// cycle, drains sorted ascending, and covers every serving change.
func TestChangeLogDrain(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	s.EnableChangeLog()

	if got := s.DrainChangedGrids(nil); len(got) != 0 {
		t.Fatalf("fresh log drained %d grids, want 0", len(got))
	}

	prev := make([]int32, m.Grid.NumCells())
	for g := range prev {
		prev[g] = int32(s.ServingSector(g))
	}
	s.MustApply(config.Change{Sector: 0, TurnOff: true})
	s.MustApply(config.Change{Sector: 0, TurnOn: true}) // same grids: dedup

	drained := s.DrainChangedGrids(nil)
	if len(drained) == 0 {
		t.Fatal("turning a sector off logged nothing")
	}
	seen := map[int32]bool{}
	for i, g := range drained {
		if i > 0 && drained[i-1] >= g {
			t.Fatalf("drain not sorted ascending: %d before %d", drained[i-1], g)
		}
		seen[g] = true
	}
	for g := 0; g < m.Grid.NumCells(); g++ {
		if int32(s.ServingSector(g)) != prev[g] && !seen[int32(g)] {
			t.Fatalf("grid %d changed serving sector but was not logged", g)
		}
	}
	if got := s.DrainChangedGrids(nil); len(got) != 0 {
		t.Fatalf("second drain returned %d grids, want 0", len(got))
	}

	// After a drain the same grids are logged again on the next touch.
	s.MustApply(config.Change{Sector: 0, PowerDelta: -3})
	if got := s.DrainChangedGrids(nil); len(got) == 0 {
		t.Fatal("post-drain change logged nothing")
	}
}

// TestShardScansDeterministic: the sharded scans are bit-identical for
// every worker count, including the sequential path.
func TestShardScansDeterministic(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	s.MustApply(config.Change{Sector: 2, TurnOff: true})
	m.ScaleUsers(1.3)

	refScan := s.UtilityScan(utility.Performance, 1)
	refSum := ShardSum(m.Grid.NumCells(), 1, func(lo, hi int) float64 {
		sum := 0.0
		for g := lo; g < hi; g++ {
			sum += m.UE(g)
		}
		return sum
	})
	for _, workers := range []int{2, 4, 8, 64} {
		if got := s.UtilityScan(utility.Performance, workers); got != refScan {
			t.Fatalf("UtilityScan(workers=%d) = %v, want bit-identical %v", workers, got, refScan)
		}
		got := ShardSum(m.Grid.NumCells(), workers, func(lo, hi int) float64 {
			sum := 0.0
			for g := lo; g < hi; g++ {
				sum += m.UE(g)
			}
			return sum
		})
		if got != refSum {
			t.Fatalf("ShardSum(workers=%d) = %v, want bit-identical %v", workers, got, refSum)
		}
	}

	// Resync must also be worker-invariant to the bit.
	s.EnableKPIAggregates(utility.Performance, 1)
	seq := s.KPIUtility()
	for _, workers := range []int{2, 8} {
		s.ResyncKPIAggregates(workers)
		if got := s.KPIUtility(); got != seq {
			t.Fatalf("resync(workers=%d) changed KPIUtility: %v vs %v", workers, got, seq)
		}
	}
}

// TestShardBounds checks the fixed partition covers [0, n) exactly.
func TestShardBounds(t *testing.T) {
	for _, n := range []int{0, 1, 5, 31, 32, 33, 900, 4096} {
		bounds := ShardBounds(n)
		next := 0
		for _, b := range bounds {
			if b[0] != next {
				t.Fatalf("n=%d: shard starts at %d, want %d", n, b[0], next)
			}
			if b[1] < b[0] {
				t.Fatalf("n=%d: negative shard [%d,%d)", n, b[0], b[1])
			}
			next = b[1]
		}
		if next != n {
			t.Fatalf("n=%d: shards cover [0,%d)", n, next)
		}
		if n > 0 && len(bounds) == 0 {
			t.Fatalf("n=%d: no shards", n)
		}
	}
}

// TestKPIAggregatesClampBranches drives the log-utility read through
// both of its branches — the per-sector totals while no bucket sits on
// the 1 kbps clamp, the bucket walk once λ reaches a sector's smallest
// L — over random moves and sector-downs, load factors from 1e-3 to 1e3
// and a surge large enough to clamp the surged sectors alone, pinning
// every read to the full-scan reference.
func TestKPIAggregatesClampBranches(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	s.EnableKPIAggregates(utility.Performance, 1)
	rng := rand.New(rand.NewSource(19))
	n := m.Net.NumSectors()

	var totals, walked, mixed int
	read := func(where string) {
		t.Helper()
		checkAgg(t, s, utility.Performance, where)
		tot, walk := s.kpiBranches()
		totals += tot
		walked += walk
		if tot > 0 && walk > 0 {
			mixed++
		}
	}
	factor := 1.0
	for round := 0; round < 6; round++ {
		for i := 0; i < 5; i++ {
			s.MustApply(randomBatchChange(rng, n))
		}
		s.MustApply(config.Change{Sector: rng.Intn(n), TurnOff: true})
		for _, f := range []float64{1e-3, 1e-2, 0.3, 1, 3, 30, 1e3} {
			m.ScaleUsers(f / factor)
			factor = f
			read("round " + itoa(round) + " factor")
		}
		m.ScaleUsers(1 / factor)
		factor = 1

		// Surge one sector's grids hard enough to clamp it while the rest
		// of the market stays on the totals branch.
		grids := servedGridsOf(s, rng.Intn(n))
		m.ScaleUsersAt(grids, 1e4)
		s.NoteUsersScaledAt(grids, 1e4)
		read("round " + itoa(round) + " surge")
		m.ScaleUsersAt(grids, 1e-4)
		s.NoteUsersScaledAt(grids, 1e-4)
		read("round " + itoa(round) + " surge expiry")
		s.ResyncKPIAggregates(2)
	}
	if totals == 0 || walked == 0 || mixed == 0 {
		t.Fatalf("branches not all exercised: %d sector reads on totals, %d walked, %d mixed reads",
			totals, walked, mixed)
	}
}

// TestKPIAggregatesDirtyResyncBitIdentical: twin states run the same
// random moves, sector-downs and localized rescales; resyncing one
// rebuilds only its dirty sectors, the other rebuilds every sector.
// Buckets, per-sector totals, per-grid accounting and the read must
// agree to the bit, while the dirty pass really skips sectors. A third
// of the grids carry no users, so unaccounted grids change sector too.
// Before every resync each clean sector must still hold the served list
// and per-grid accounting its last rebuild left — the structural form
// of "rebuilding it would change nothing".
func TestKPIAggregatesDirtyResyncBitIdentical(t *testing.T) {
	m := testModel(t)
	dirty, full := baseline(t, m), baseline(t, m)
	dirty.AssignUsersWeighted(func(g int) float64 {
		if g%3 == 0 {
			return 0
		}
		return float64(1 + g%5)
	})
	full.RecomputeLoads()
	dirty.EnableKPIAggregates(utility.Performance, 1)
	full.EnableKPIAggregates(utility.Performance, 3)
	rng := rand.New(rand.NewSource(7))
	n := m.Net.NumSectors()

	eq := func(where, what string, i int, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s[%d] = %v after the dirty resync, %v after the full rebuild", where, what, i, a, b)
		}
	}
	var snapServed [][]int32
	var snapSec []int32
	var snapW []float64
	var snapLvl []uint8
	snapshot := func() {
		snapServed = make([][]int32, n)
		for b := range snapServed {
			snapServed[b] = slices.Clone(dirty.servedList[b])
		}
		snapSec = slices.Clone(dirty.aggSec)
		snapW = slices.Clone(dirty.aggW)
		snapLvl = slices.Clone(dirty.aggLvl)
	}
	snapshot()
	skipped := 0
	for round := 0; round < 60; round++ {
		where := "round " + itoa(round)
		for i := rng.Intn(2); i >= 0; i-- {
			ch := randomBatchChange(rng, n)
			dirty.MustApply(ch)
			full.MustApply(ch)
		}
		if rng.Intn(4) == 0 {
			ch := config.Change{Sector: rng.Intn(n), TurnOff: true}
			dirty.MustApply(ch)
			full.MustApply(ch)
		}
		if rng.Intn(3) == 0 {
			grids := servedGridsOf(dirty, rng.Intn(n))
			f := 0.5 + 2*rng.Float64()
			m.ScaleUsersAt(grids, f)
			dirty.NoteUsersScaledAt(grids, f)
			full.NoteUsersScaledAt(grids, f)
		}
		m.ScaleUsers(0.5 + rng.Float64())

		for b := 0; b < n; b++ {
			if dirty.aggSt[b].dirty {
				continue
			}
			skipped++
			if !slices.Equal(dirty.servedList[b], snapServed[b]) {
				t.Fatalf("%s: sector %d's served list changed but it is not marked dirty", where, b)
			}
			for _, g := range dirty.servedList[b] {
				if dirty.aggSec[g] != snapSec[g] || dirty.aggW[g] != snapW[g] || dirty.aggLvl[g] != snapLvl[g] {
					t.Fatalf("%s: grid %d of clean sector %d was re-accounted", where, g, b)
				}
			}
		}
		dirty.ResyncKPIAggregates(1 + round%3)
		full.rebuildKPIAggregates(2)
		snapshot()

		for i := range full.aggBk {
			eq(where, "sumW", i, dirty.aggBk[i].sumW, full.aggBk[i].sumW)
			eq(where, "sumWL", i, dirty.aggBk[i].sumWL, full.aggBk[i].sumWL)
		}
		for b := 0; b < n; b++ {
			ds, fs := dirty.aggSt[b], full.aggSt[b]
			eq(where, "totW", b, ds.totW, fs.totW)
			eq(where, "totWL", b, ds.totWL, fs.totWL)
			eq(where, "minL", b, ds.minL, fs.minL)
		}
		for g := 0; g < m.Grid.NumCells(); g++ {
			if dirty.aggSec[g] != full.aggSec[g] {
				t.Fatalf("%s: grid %d accounted under %d after the dirty resync, %d after the full rebuild", where, g, dirty.aggSec[g], full.aggSec[g])
			}
			eq(where, "aggW", g, dirty.aggW[g], full.aggW[g])
			if dirty.aggLvl[g] != full.aggLvl[g] {
				t.Fatalf("%s: grid %d accounted at level %d after the dirty resync, %d after the full rebuild", where, g, dirty.aggLvl[g], full.aggLvl[g])
			}
		}
		eq(where, "KPIUtility", 0, dirty.KPIUtility(), full.KPIUtility())
		checkAgg(t, dirty, utility.Performance, where)
	}
	if skipped == 0 {
		t.Fatal("every resync rebuilt every sector; the dirty pass skipped nothing")
	}
}
