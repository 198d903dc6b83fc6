package netmodel

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"magus/internal/config"
	"magus/internal/units"
	"magus/internal/utility"
)

// unboundedRate hides the link model's bucket bounds, so every grid's
// cached bucket is empty and every grid is fragile.
type unboundedRate struct{ RateMapper }

// weakSkipModels returns the analytic test model, one with tabulated
// link budgets on a few sectors, and one whose rate mapper has no
// bucket bounds.
func weakSkipModels(t *testing.T) map[string]*Model {
	t.Helper()
	tab := testModel(t)
	for i, b := range []int{0, 3, 7} {
		install(t, tab, b, float64(2*i-1))
	}
	m := testModel(t)
	plain := MustNewModel(m.Net, m.SPM, m.Net.Bounds, Params{CellSizeM: 200, Link: unboundedRate{m.Link}})
	return map[string]*Model{"analytic": m, "tabulated": tab, "unbounded": plain}
}

// everyMove lists, for every sector, the moves the skip must price
// exactly: ±1 dB, ±6 dB, ±1 tilt, off and on.
func everyMove(m *Model) []config.Change {
	var moves []config.Change
	for b := 0; b < m.Net.NumSectors(); b++ {
		moves = append(moves,
			config.Change{Sector: b, PowerDelta: 1}, config.Change{Sector: b, PowerDelta: -1},
			config.Change{Sector: b, PowerDelta: 6}, config.Change{Sector: b, PowerDelta: -6},
			config.Change{Sector: b, TiltDelta: 1}, config.Change{Sector: b, TiltDelta: -1},
			config.Change{Sector: b, TurnOff: true}, config.Change{Sector: b, TurnOn: true})
	}
	return moves
}

// sameResults fails unless got and want agree on every Applied and on
// every Delta bit for bit.
func sameResults(t *testing.T, where string, moves []config.Change, got, want []BatchResult) {
	t.Helper()
	for i := range moves {
		if got[i].Applied != want[i].Applied || (got[i].Err == nil) != (want[i].Err == nil) ||
			math.Float64bits(got[i].Delta) != math.Float64bits(want[i].Delta) {
			t.Fatalf("%s: move %v: got %+v, full scan %+v", where, moves[i], got[i], want[i])
		}
	}
}

// TestWeakSkipMatchesFullScan pins SpeculateBatch's weak-entry skip to
// the full-footprint scan on random states reached through power, tilt,
// off and on Applies: every move's Applied and Delta must be the same
// bits, and every entry the skip leaves out must be one the full scan's
// batchEntry leaves untouched.
func TestWeakSkipMatchesFullScan(t *testing.T) {
	u := utility.Performance
	for name, m := range weakSkipModels(t) {
		t.Run(name, func(t *testing.T) {
			s := baseline(t, m)
			s.Utility(u)
			rng := rand.New(rand.NewSource(7))
			moves := everyMove(m)
			skipped, entries := 0, 0
			for round := 0; round < 4; round++ {
				rowPowers(t, s)
				got := s.SpeculateBatch(moves, u, nil)
				skips := make([]map[int32]bool, len(moves))
				for i, mv := range moves {
					skips[i] = s.skippedEntries(mv)
					skipped += len(skips[i])
				}
				i := 0
				want := s.speculateFull(moves, u, func(mv config.Change, pos int32, hit bool) {
					for moves[i] != mv {
						i++
					}
					entries++
					if hit && skips[i][pos] {
						t.Fatalf("round %d: move %v skips entry %d, which the full scan touches", round, mv, pos)
					}
				})
				sameResults(t, name, moves, got, want)
				applyEveryShape(t, s, rng)
				s.Utility(u)
			}
			t.Logf("%d of %d scanned entries skipped", skipped, entries)
			switch {
			case name == "unbounded" && skipped != 0:
				t.Fatalf("a mapper without bucket bounds skipped %d entries", skipped)
			case name != "unbounded" && skipped < entries/4:
				t.Fatalf("only %d of %d entries skipped", skipped, entries)
			}
		})
	}
}

// rowPowers checks the invariant the skip's weak tests read instead of
// rpMw: every entry's received power is its sector's power times its
// installed row's gain, and 0 off-air.
func rowPowers(t *testing.T, s *State) {
	t.Helper()
	for b, entries := range s.Model.core.sectorEntries {
		powerMw := units.DbmToMw(s.Cfg.PowerDbm(b))
		if s.Cfg.Off(b) {
			powerMw = 0
		}
		for i, ref := range entries {
			if want := powerMw * s.linkGain[b][i]; math.Float64bits(s.rpMw[ref.Pos]) != math.Float64bits(want) {
				t.Fatalf("sector %d entry %d: received power %v, power times gain %v", b, i, s.rpMw[ref.Pos], want)
			}
		}
	}
}

// TestFragileSetFresh: after random Apply, RefreshSector,
// InstallLinkTable, Clone and Derive sequences, every state's cached
// fragile set equals a from-scratch build, and a clone taken before a
// mutation of its source keeps a set that is right for the clone.
func TestFragileSetFresh(t *testing.T) {
	m := testModel(t)
	rng := rand.New(rand.NewSource(11))
	n := m.Net.NumSectors()
	check := func(where string, s *State) {
		t.Helper()
		if got, want := s.fragile(), s.buildFragile(); !slices.Equal(got, want) {
			t.Fatalf("%s: cached fragile set differs from a fresh build", where)
		}
	}
	states := []*State{baseline(t, m)}
	for step := 0; step < 60; step++ {
		i := rng.Intn(len(states))
		s := states[i]
		check("before", s)
		switch op := rng.Intn(6); op {
		case 0, 1:
			s.MustApply(randomBatchChange(rng, n))
		case 2:
			b := rng.Intn(n)
			install(t, m, b, rng.Float64()*4-2)
			for _, st := range states {
				st.RefreshSector(b)
			}
		case 3:
			c := s.Clone()
			s.MustApply(randomBatchChange(rng, n))
			check("clone after its source moved", c)
			states = append(states, c)
		case 4:
			cfg := s.Cfg.Clone()
			for k := 0; k < 3; k++ {
				if _, err := cfg.Apply(randomBatchChange(rng, n)); err != nil {
					t.Fatal(err)
				}
			}
			states = append(states, s.Derive(m, cfg))
		default:
			s.RefreshSector(rng.Intn(n))
		}
		for _, st := range states {
			check("after", st)
		}
		if len(states) > 6 {
			states = states[1:]
		}
	}
}

// TestFragileConcurrentScoring: goroutines score on one shared state
// whose fragile set is stale, so each may rebuild and publish it; every
// goroutine must get the full scan's results.
func TestFragileConcurrentScoring(t *testing.T) {
	m := testModel(t)
	u := utility.Performance
	s := baseline(t, m)
	s.Utility(u)
	s.fragile()
	rng := rand.New(rand.NewSource(5))
	moves := everyMove(m)
	for round := 0; round < 3; round++ {
		s.MustApply(randomChange(rng, m.Net.NumSectors()))
		s.Utility(u)
		want := s.speculateFull(moves, u, nil)
		results := make([][]BatchResult, 4)
		var wg sync.WaitGroup
		for w := range results {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w] = s.SpeculateBatch(moves, u, nil)
			}(w)
		}
		wg.Wait()
		for _, got := range results {
			sameResults(t, "concurrent", moves, got, want)
		}
	}
}

// TestSINRImproversServedFirst compares SINRImprovers with the entry
// scan alone over random states, affected sets and units, including a
// unit so small that no served grid's SINR rises past the test's
// tolerance and every candidate falls through to the scan.
func TestSINRImproversServedFirst(t *testing.T) {
	m := testModel(t)
	base := baseline(t, m)
	s := base.Clone()
	rng := rand.New(rand.NewSource(13))
	n := m.Net.NumSectors()
	candidates := make([]int, n)
	for b := range candidates {
		candidates[b] = b
	}
	served, total := 0, 0
	for round := 0; round < 40; round++ {
		s.MustApply(randomBatchChange(rng, n))
		affected := s.DegradedGrids(base)
		if round%2 == 1 {
			affected = affected[:0]
			for g := 0; g < m.Grid.NumCells(); g++ {
				if rng.Intn(20) == 0 {
					affected = append(affected, g)
				}
			}
		}
		for _, unit := range []float64{1e-12, 0.5, 1, 3} {
			got := s.SINRImprovers(affected, candidates, unit)
			want := s.sinrImproversFull(affected, candidates, unit)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d unit %v: served-first %v, entry scan %v", round, unit, got, want)
			}
			total += len(got)
			if unit == 1e-12 {
				continue
			}
			for _, g := range affected {
				s.affectedMark[g] = true
			}
			for _, b := range got {
				if s.servesImproved(b, math.Pow(10, unit/10)) {
					served++
				}
			}
			for _, g := range affected {
				s.affectedMark[g] = false
			}
		}
	}
	if served == 0 || total == 0 {
		t.Fatalf("served pass settled %d of %d members", served, total)
	}
	t.Logf("served pass settled %d of %d members", served, total)
}
