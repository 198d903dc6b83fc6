package netmodel

import (
	"math/rand"
	"testing"

	"magus/internal/config"
	"magus/internal/utility"
)

// randomChange draws a plausible single-sector search move.
func randomChange(rng *rand.Rand, numSectors int) config.Change {
	b := rng.Intn(numSectors)
	switch rng.Intn(5) {
	case 0:
		return config.Change{Sector: b, PowerDelta: float64(1 + rng.Intn(4))}
	case 1:
		return config.Change{Sector: b, PowerDelta: -float64(1 + rng.Intn(4))}
	case 2:
		return config.Change{Sector: b, TiltDelta: 1 + rng.Intn(3)}
	case 3:
		return config.Change{Sector: b, TiltDelta: -(1 + rng.Intn(3))}
	default:
		return config.Change{Sector: b, TurnOff: true}
	}
}

// TestSpeculateMatchesFullEvaluation is the core delta-utility property:
// over a long random move sequence against evolving base configurations
// (including off-air sectors and their reactivation), SpeculateBatch's
// float path must agree with the exact oracle — commit the move on a
// clone and run the full-grid Utility scan — on the applied change
// exactly and on the utility to within summation-order rounding, and
// must leave the state untouched.
func TestSpeculateMatchesFullEvaluation(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	rng := rand.New(rand.NewSource(42))
	u := utility.Performance

	cfgBefore := s.Cfg.Clone()
	u0 := s.Utility(u)
	nonNoop := 0
	for i := 0; i < 400; i++ {
		ch := randomBatchChange(rng, m.Net.NumSectors())
		got := s.SpeculateBatch([]config.Change{ch}, u, false, nil)[0]
		if got.Err != nil {
			t.Fatalf("move %d (%v): %v", i, ch, got.Err)
		}
		ref := s.Clone()
		refApplied, err := ref.Apply(ch)
		if err != nil {
			t.Fatalf("reference Apply(%v): %v", ch, err)
		}
		if got.Applied != refApplied {
			t.Fatalf("move %d: speculated applied %v != reference %v", i, got.Applied, refApplied)
		}
		want := ref.Utility(u)
		if refApplied.IsZero() {
			want = u0
			if got.Delta != 0 {
				t.Fatalf("move %d: no-op move has delta %v", i, got.Delta)
			}
		} else {
			nonNoop++
		}
		if relDiff(u0+got.Delta, want) > 1e-9 {
			t.Fatalf("move %d (%v): exact+delta %v, full evaluation %v", i, ch, u0+got.Delta, want)
		}
		if relDiff(got.Utility, want) > 1e-9 {
			t.Fatalf("move %d (%v): tracked utility %v, full evaluation %v", i, ch, got.Utility, want)
		}
		// The state must be untouched.
		if !s.Cfg.Equal(cfgBefore) {
			t.Fatalf("move %d: configuration mutated by SpeculateBatch", i)
		}
		if got := s.Utility(u); got != u0 {
			t.Fatalf("move %d: full-scan utility moved: %v vs %v", i, got, u0)
		}
		// Periodically commit so speculation is tested against many base
		// configurations, with tracking repaired across commits.
		if i%13 == 0 && !refApplied.IsZero() {
			s.MustApply(ch)
			cfgBefore = s.Cfg.Clone()
			u0 = s.Utility(u)
		}
	}
	if nonNoop < 150 {
		t.Fatalf("only %d effective moves exercised; scenario too degenerate", nonNoop)
	}
	// After everything, the running sum still matches a fresh full scan.
	if got, want := s.UtilityTracked(u), s.Utility(u); relDiff(got, want) > 1e-9 {
		t.Fatalf("final running sum %v != full scan %v", got, want)
	}
}

// TestSpeculateTurnOffOn covers the recompute path (on/off moves touch
// every entry of the sector, including serving handoffs).
func TestSpeculateTurnOffOn(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	u := utility.Performance
	central := m.Net.CentralSite()
	target := m.Net.Sites[central].Sectors[0]

	u0 := s.Utility(u)
	off := config.Change{Sector: target, TurnOff: true}
	res := s.SpeculateBatch([]config.Change{off}, u, false, nil)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	specOff := u0 + res.Delta
	ref := s.Clone()
	ref.MustApply(off)
	if want := ref.Utility(u); relDiff(specOff, want) > 1e-9 {
		t.Fatalf("turn-off speculation %v != full %v", specOff, want)
	}
	if specOff >= u0 && s.Load(target) > 0 {
		t.Errorf("turning off a loaded sector should cost utility: %v -> %v", u0, specOff)
	}
	if got := s.Utility(u); got != u0 {
		t.Fatalf("Utility changed after speculation: %v vs %v", got, u0)
	}

	// Turning the sector back on from the off-air state must price the
	// restoration against the same oracle.
	on := config.Change{Sector: target, TurnOn: true}
	uOff := ref.Utility(u)
	res = ref.SpeculateBatch([]config.Change{on}, u, false, nil)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	back := ref.Clone()
	back.MustApply(on)
	if got, want := uOff+res.Delta, back.Utility(u); relDiff(got, want) > 1e-9 {
		t.Fatalf("turn-on speculation %v != full %v", got, want)
	}
}

// TestTrackingInvalidatedByReassignment: changing the UE distribution
// must not leave a stale running sum behind.
func TestTrackingInvalidatedByReassignment(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	u := utility.Performance
	s.EnableUtilityTracking(u)
	s.MustApply(config.Change{Sector: 0, PowerDelta: 2})

	s.AssignUsersUniform() // rebuilds ue weights; must switch tracking off
	if got, want := s.UtilityTracked(u), s.Utility(u); relDiff(got, want) > 1e-9 {
		t.Fatalf("running sum stale after reassignment: %v vs %v", got, want)
	}
}

// TestTrackingSwitchesObjective: asking for a different utility function
// re-derives the sum rather than mixing objectives.
func TestTrackingSwitchesObjective(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	if got, want := s.UtilityTracked(utility.Performance), s.Utility(utility.Performance); relDiff(got, want) > 1e-9 {
		t.Fatalf("performance sum %v != %v", got, want)
	}
	if got, want := s.UtilityTracked(utility.Coverage), s.Utility(utility.Coverage); relDiff(got, want) > 1e-9 {
		t.Fatalf("coverage sum %v != %v", got, want)
	}
}

// TestCloneDropsTracking: a clone re-derives its own tracking and the
// parent's sum is unaffected by the clone's moves.
func TestCloneDropsTracking(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	u := utility.Performance
	parentSum := s.UtilityTracked(u)

	c := s.Clone()
	c.MustApply(config.Change{Sector: 1, PowerDelta: 3})
	if got, want := c.UtilityTracked(u), c.Utility(u); relDiff(got, want) > 1e-9 {
		t.Fatalf("clone sum %v != clone full scan %v", got, want)
	}
	if got := s.UtilityTracked(u); got != parentSum {
		t.Fatalf("parent sum changed by clone activity: %v vs %v", got, parentSum)
	}
}

// TestSINRImproversScratchReuse: repeated calls (including overlapping
// affected sets) must agree with a reference map-based membership test.
func TestSINRImproversScratchReuse(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	base := s.Clone()
	central := m.Net.CentralSite()
	targets := m.Net.Sites[central].Sectors
	for _, tg := range targets {
		s.MustApply(config.Change{Sector: tg, TurnOff: true})
	}
	degraded := s.DegradedGrids(base)
	if len(degraded) == 0 {
		t.Skip("no degradation in this layout")
	}
	neighbors := m.Net.NeighborSectors(targets, 4000)

	first := s.SINRImprovers(degraded, neighbors, 1)
	// A second identical call must return the same set (scratch cleared).
	second := s.SINRImprovers(degraded, neighbors, 1)
	if len(first) != len(second) {
		t.Fatalf("scratch not cleared: %v then %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("scratch not cleared: %v then %v", first, second)
		}
	}
	// A disjoint affected set must not see the previous marks.
	other := []int{}
	seen := map[int]bool{}
	for _, g := range degraded {
		seen[g] = true
	}
	for g := 0; g < m.Grid.NumCells() && len(other) < 5; g++ {
		if !seen[g] && m.UE(g) != 0 {
			other = append(other, g)
		}
	}
	if len(other) > 0 {
		got := s.SINRImprovers(other, neighbors, 1)
		for _, b := range got {
			found := false
			for _, ref := range m.core.sectorEntries[b] {
				for _, g := range other {
					if int(ref.Grid) == g {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("improver %d has no entry on the affected grids; stale scratch marks", b)
			}
		}
	}
}
