package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"magus/internal/config"
	"magus/internal/umts"
	"magus/internal/units"
	"magus/internal/utility"
)

// weakSkipModels returns the analytic test model on the LTE ladder, one
// with tabulated link budgets on a few sectors, and one on the UMTS
// ladder.
func weakSkipModels(t *testing.T) map[string]*Model {
	t.Helper()
	tab := testModel(t)
	for i, b := range []int{0, 3, 7} {
		install(t, tab, b, float64(2*i-1))
	}
	m := testModel(t)
	hsdpa := MustNewModel(m.Net, m.SPM, m.Net.Bounds, Params{CellSizeM: 200, Link: umts.NewLinkModel()})
	return map[string]*Model{"analytic": m, "tabulated": tab, "umts": hsdpa}
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
			if skipped < entries/4 {
				t.Fatalf("only %d of %d entries skipped", skipped, entries)
			}
		})
	}
}

// rowPowers checks the invariant every received power is read through:
// each sector's powerMw is DbmToMw of its configured power, and 0
// off-air, and its installed row is the model's row at its tilt.
func rowPowers(t *testing.T, s *State) {
	t.Helper()
	for b := range s.Model.core.sectorEntries {
		want := units.DbmToMw(s.Cfg.PowerDbm(b))
		if s.Cfg.Off(b) {
			want = 0
		}
		if math.Float64bits(s.powerMw[b]) != math.Float64bits(want) {
			t.Fatalf("sector %d: powerMw %v, configured %v", b, s.powerMw[b], want)
		}
		if !sameRow(s.rows[b].gain, s.Model.gainRow(b, s.Cfg.TiltIndex(b)).gain) {
			t.Fatalf("sector %d: installed row is not the model's row at its tilt", b)
		}
	}
}

// TestFragileSetFresh: after random Apply, RefreshSector,
// InstallLinkTable, Clone and NewState sequences, every state's cached
// fragile set equals a from-scratch build, and a clone taken before a
// mutation of its source keeps a set that is right for the clone.
func TestFragileSetFresh(t *testing.T) {
	m := testModel(t)
	rng := rand.New(rand.NewSource(11))
	n := m.Net.NumSectors()
	check := func(where string, s *State) {
		t.Helper()
		if got, want := s.fragile().bits, s.buildFragile(); !slices.Equal(got, want) {
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
			states = append(states, m.NewState(cfg))
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

// sameEntryBits fails unless each sector's words of the state's fragile
// entry bits hold exactly the entries at fragile grids.
func sameEntryBits(t *testing.T, where string, s *State) {
	t.Helper()
	c := s.Model.core
	f := s.fragile()
	entries := f.entryBits(c)
	if want := int(c.entryWords[len(c.entryWords)-1]); len(entries) != want {
		t.Fatalf("%s: %d entry words, want %d", where, len(entries), want)
	}
	for b, refs := range c.sectorEntries {
		words := entries[c.entryWords[b]:c.entryWords[b+1]]
		if len(words) != (len(refs)+63)/64 {
			t.Fatalf("%s: sector %d has %d words for %d entries", where, b, len(words), len(refs))
		}
		for i, ref := range refs {
			if got, want := words[i>>6]&(1<<(i&63)) != 0, f.bits.has(ref.Grid); got != want {
				t.Fatalf("%s: sector %d entry %d (grid %d): entry bit %v, grid bit %v", where, b, i, ref.Grid, got, want)
			}
		}
		if i := len(refs); i%64 != 0 && words[len(words)-1]>>(i%64) != 0 {
			t.Fatalf("%s: sector %d sets bits past its %d entries", where, b, i)
		}
	}
}

// TestFragileEntryBits: after random Applies of every shape, each
// sector's fragile entry bits match the grid-set predicate, and power
// moves priced from them match the full scan, also on sectors whose
// configured power lies above their MaxPowerDbm (their +1 dB moves clamp
// to a power-down). The bits are derived from an earlier generation's:
// the last one scored, one whose set never built entry bits in between,
// or a generation of the state a clone was taken from.
func TestFragileEntryBits(t *testing.T) {
	u := utility.Performance
	for name, m := range weakSkipModels(t) {
		t.Run(name, func(t *testing.T) {
			s := baseline(t, m)
			for b := 0; b < m.Net.NumSectors(); b += 5 {
				sec := &m.Net.Sectors[b]
				sec.MaxPowerDbm = s.Cfg.PowerDbm(b) - 2
				sec.MinPowerDbm = min(sec.MinPowerDbm, sec.MaxPowerDbm)
			}
			rng := rand.New(rand.NewSource(17))
			moves := everyMove(m)
			for round := 0; round < 6; round++ {
				sameEntryBits(t, fmt.Sprintf("round %d", round), s)
				s.Utility(u)
				sameResults(t, name, moves, s.SpeculateBatch(moves, u, nil), s.speculateFull(moves, u, nil))
				applyEveryShape(t, s, rng)
				switch round % 3 {
				case 1:
					s.fragile()
					s.MustApply(randomBatchChange(rng, m.Net.NumSectors()))
				case 2:
					s = s.Clone()
					s.MustApply(randomBatchChange(rng, m.Net.NumSectors()))
				}
			}
		})
	}
}

// TestFragileConcurrentFirstUse: goroutines score power moves at once on
// a state whose rows have no band order and whose generation has no
// fragile set yet, so each may build both; all must get the full scan's
// results, and the band orders and entry bits they leave published must
// be the ones a single builder derives.
func TestFragileConcurrentFirstUse(t *testing.T) {
	u := utility.Performance
	m := testModel(t)
	s := baseline(t, m)
	s.Utility(u)
	var moves []config.Change
	for b := 0; b < m.Net.NumSectors(); b++ {
		moves = append(moves, config.Change{Sector: b, PowerDelta: 1}, config.Change{Sector: b, PowerDelta: -1})
	}
	oracle := baseline(t, testModel(t))
	oracle.Utility(u)
	want := oracle.speculateFull(moves, u, nil)

	const workers = 6
	results := make([][]BatchResult, workers)
	entries := make([][]uint64, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			entries[w] = s.fragile().entryBits(m.core)
			results[w] = s.SpeculateBatch(moves, u, nil)
		}(w)
	}
	close(start)
	wg.Wait()
	for w, got := range results {
		sameResults(t, fmt.Sprintf("worker %d", w), moves, got, want)
		if !slices.Equal(entries[w], entries[0]) {
			t.Fatalf("worker %d derived other entry bits", w)
		}
	}
	sameEntryBits(t, "published", s)
	for b, row := range s.rows {
		checkBands(t, fmt.Sprintf("sector %d", b), row.gain, row.bandOrder())
	}
}
