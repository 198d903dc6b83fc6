package netmodel

import (
	"math/rand"
	"sync"
	"testing"

	"magus/internal/config"
	"magus/internal/utility"
)

// randomBatchChange widens randomChange with TurnOn moves so the batch
// paths see every move shape, including reactivation of sectors an
// earlier committed move turned off.
func randomBatchChange(rng *rand.Rand, numSectors int) config.Change {
	if rng.Intn(6) == 0 {
		return config.Change{Sector: rng.Intn(numSectors), TurnOn: true}
	}
	return randomChange(rng, numSectors)
}

// TestSpeculateBatchMatchesSpeculate checks that scoring a batch of
// moves in one call gives, move for move, the same result as scoring
// each move in a call of its own: the scratch a batch reuses across its
// moves must not leak from one move into the next. It runs over a long
// random move sequence against evolving base configurations, including
// off-air sectors; the applied change must agree exactly and the
// utility to within summation-order rounding.
func TestSpeculateBatchMatchesSpeculate(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	rng := rand.New(rand.NewSource(7))
	u := utility.Performance

	nonNoop := 0
	for round := 0; round < 40; round++ {
		moves := make([]config.Change, 10)
		for i := range moves {
			moves[i] = randomBatchChange(rng, m.Net.NumSectors())
		}
		batch := s.SpeculateBatch(moves, u, false, nil)
		if len(batch) != len(moves) {
			t.Fatalf("round %d: %d results for %d moves", round, len(batch), len(moves))
		}
		for i, ch := range moves {
			got := batch[i]
			if got.Err != nil {
				t.Fatalf("round %d move %d (%v): %v", round, i, ch, got.Err)
			}
			want := s.SpeculateBatch([]config.Change{ch}, u, false, nil)[0]
			if want.Err != nil {
				t.Fatalf("round %d move %d (%v): single: %v", round, i, ch, want.Err)
			}
			if got.Applied != want.Applied {
				t.Fatalf("round %d move %d (%v): batch applied %v, single %v", round, i, ch, got.Applied, want.Applied)
			}
			if relDiff(got.Utility, want.Utility) > 1e-9 {
				t.Fatalf("round %d move %d (%v): batch utility %v, single %v", round, i, ch, got.Utility, want.Utility)
			}
			if !want.Applied.IsZero() {
				nonNoop++
			}
		}
		// Commit one effective move per round so the batch is tested
		// against many base configurations.
		for _, r := range batch {
			if !r.Applied.IsZero() {
				s.MustApply(r.Applied)
				break
			}
		}
	}
	if nonNoop < 150 {
		t.Fatalf("only %d effective moves exercised; scenario too degenerate", nonNoop)
	}
}

// TestSpeculateBatchManyMoves scores a whole candidate set in one call
// and cross-checks each result against the exact oracle: commit on a
// clone, then a full-scan Utility.
func TestSpeculateBatchManyMoves(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	rng := rand.New(rand.NewSource(11))
	u := utility.Performance
	s.EnableUtilityTracking(u)

	moves := make([]config.Change, 120)
	for i := range moves {
		moves[i] = randomBatchChange(rng, m.Net.NumSectors())
	}
	results := s.SpeculateBatch(moves, u, false, nil)
	if len(results) != len(moves) {
		t.Fatalf("got %d results for %d moves", len(results), len(moves))
	}
	base := s.UtilityTracked(u)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("move %d (%v): %v", i, moves[i], r.Err)
		}
		ref := s.Clone()
		refApplied := ref.MustApply(moves[i])
		if r.Applied != refApplied {
			t.Fatalf("move %d: applied %v, reference %v", i, r.Applied, refApplied)
		}
		want := ref.Utility(u)
		if refApplied.IsZero() {
			want = base
		}
		if relDiff(r.Utility, want) > 1e-9 {
			t.Fatalf("move %d (%v): batch %v, full evaluation %v", i, moves[i], r.Utility, want)
		}
	}
	// Scoring must not have mutated the state.
	if got := s.UtilityTracked(u); got != base {
		t.Fatalf("batch scoring mutated the tracked sum: %v -> %v", base, got)
	}
}

// TestSpeculateBatchFixedWithinTolerance certifies the fixed-point error
// budget: the quantized centi-dB evaluation must stay within 0.1% of
// the exact full evaluation for every move shape.
func TestSpeculateBatchFixedWithinTolerance(t *testing.T) {
	if !fixedPointEnabled {
		t.Skip("built with magus_nofixed")
	}
	m := testModel(t)
	s := baseline(t, m)
	rng := rand.New(rand.NewSource(23))
	u := utility.Performance
	s.EnableUtilityTracking(u)

	moves := make([]config.Change, 200)
	for i := range moves {
		moves[i] = randomBatchChange(rng, m.Net.NumSectors())
	}
	results := s.SpeculateBatch(moves, u, true, nil)
	base := s.UtilityTracked(u)
	worst := 0.0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("move %d (%v): %v", i, moves[i], r.Err)
		}
		ref := s.Clone()
		refApplied := ref.MustApply(moves[i])
		if r.Applied != refApplied {
			t.Fatalf("move %d: applied %v, reference %v", i, r.Applied, refApplied)
		}
		want := ref.Utility(u)
		if refApplied.IsZero() {
			want = base
		}
		if d := relDiff(r.Utility, want); d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Fatalf("fixed-point utility deviation %.2e exceeds the 0.1%% budget", worst)
	}
	t.Logf("worst fixed-point relative deviation over %d moves: %.2e", len(moves), worst)
}

// TestSpeculateBatchFixedCurveOverride: a sector answering from a
// tabulated link curve must be scored on the float path even when the
// caller asks for fixed — the mirror quantizes the analytic pattern,
// not ingested curves — and therefore stay within summation-order
// rounding of the exact oracle.
func TestSpeculateBatchFixedCurveOverride(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	u := utility.Performance

	// Install an identity-resampled table on sector 0 (values sampled
	// from the model itself at its own tilt settings, so exact scores
	// are unchanged).
	b := 0
	tilts := m.Net.Sectors[b].Tilts
	var settings []float64
	for i := tilts.MinIndex(); i <= tilts.MaxIndex(); i++ {
		settings = append(settings, tilts.Degrees(i))
	}
	if err := m.InstallLinkTable(b, settings, m.SectorCells(b), m.SampleLinkDB(b, settings)); err != nil {
		t.Fatalf("InstallLinkTable: %v", err)
	}
	s = baseline(t, m)

	ch := config.Change{Sector: b, TiltDelta: 1}
	got := s.SpeculateBatch([]config.Change{ch}, u, true, nil)[0]
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	ref := s.Clone()
	wantApplied := ref.MustApply(ch)
	if got.Applied != wantApplied {
		t.Fatalf("applied %v, want %v", got.Applied, wantApplied)
	}
	if gotU, wantU := s.Utility(u)+got.Delta, ref.Utility(u); relDiff(gotU, wantU) > 1e-9 {
		t.Fatalf("curve-override sector must score on the float path: batch %v, full evaluation %v", gotU, wantU)
	}
}

// TestSharedCoreConcurrentEngines is the shared-substrate race test: N
// views forked from one model — one immutable core — each drive their
// own State through interleaved fixed and float batch scoring and
// commits.
// Under -race this proves the core is never written after construction
// and per-engine mutation stays confined to the engine's State.
func TestSharedCoreConcurrentEngines(t *testing.T) {
	m := testModel(t)
	core := m.Core()
	const engines = 8
	var wg sync.WaitGroup
	for e := 0; e < engines; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			view := m.ForkUsers()
			if view.Core() != core {
				t.Errorf("engine %d: fork does not share the core", e)
				return
			}
			s := view.NewState(config.New(view.Net))
			s.AssignUsersUniform()
			u := utility.Performance
			s.EnableUtilityTracking(u)
			rng := rand.New(rand.NewSource(int64(100 + e)))
			for i := 0; i < 40; i++ {
				ch := randomBatchChange(rng, view.Net.NumSectors())
				res := s.SpeculateBatch([]config.Change{ch}, u, true, nil)[0]
				if res.Err != nil {
					t.Errorf("engine %d move %d: %v", e, i, res.Err)
					return
				}
				if res := s.SpeculateBatch([]config.Change{ch}, u, false, nil)[0]; res.Err != nil {
					t.Errorf("engine %d move %d: %v", e, i, res.Err)
					return
				}
				if i%5 == 0 {
					s.MustApply(ch)
				}
			}
		}(e)
	}
	wg.Wait()
	if core.Refs() < 1 {
		t.Fatalf("core refcount %d, want >= 1", core.Refs())
	}
}
