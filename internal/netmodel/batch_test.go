package netmodel

import (
	"math/rand"
	"sync"
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

// randomBatchChange widens randomChange with TurnOn moves so the batch
// paths see every move shape, including reactivation of sectors an
// earlier committed move turned off.
func randomBatchChange(rng *rand.Rand, numSectors int) config.Change {
	if rng.Intn(6) == 0 {
		return config.Change{Sector: rng.Intn(numSectors), TurnOn: true}
	}
	return randomChange(rng, numSectors)
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
		got := s.SpeculateBatch([]config.Change{ch}, u, nil)[0]
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
		// The state must be untouched.
		if !s.Cfg.Equal(cfgBefore) {
			t.Fatalf("move %d: configuration mutated by SpeculateBatch", i)
		}
		if got := s.Utility(u); got != u0 {
			t.Fatalf("move %d: full-scan utility moved: %v vs %v", i, got, u0)
		}
		// Periodically commit so speculation is tested against many base
		// configurations.
		if i%13 == 0 && !refApplied.IsZero() {
			s.MustApply(ch)
			cfgBefore = s.Cfg.Clone()
			u0 = s.Utility(u)
		}
	}
	if nonNoop < 150 {
		t.Fatalf("only %d effective moves exercised; scenario too degenerate", nonNoop)
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
	res := s.SpeculateBatch([]config.Change{off}, u, nil)[0]
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
	res = ref.SpeculateBatch([]config.Change{on}, u, nil)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	back := ref.Clone()
	back.MustApply(on)
	if got, want := uOff+res.Delta, back.Utility(u); relDiff(got, want) > 1e-9 {
		t.Fatalf("turn-on speculation %v != full %v", got, want)
	}
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
		u0 := s.Utility(u)
		batch := s.SpeculateBatch(moves, u, nil)
		if len(batch) != len(moves) {
			t.Fatalf("round %d: %d results for %d moves", round, len(batch), len(moves))
		}
		for i, ch := range moves {
			got := batch[i]
			if got.Err != nil {
				t.Fatalf("round %d move %d (%v): %v", round, i, ch, got.Err)
			}
			want := s.SpeculateBatch([]config.Change{ch}, u, nil)[0]
			if want.Err != nil {
				t.Fatalf("round %d move %d (%v): single: %v", round, i, ch, want.Err)
			}
			if got.Applied != want.Applied {
				t.Fatalf("round %d move %d (%v): batch applied %v, single %v", round, i, ch, got.Applied, want.Applied)
			}
			if relDiff(u0+got.Delta, u0+want.Delta) > 1e-9 {
				t.Fatalf("round %d move %d (%v): batch utility %v, single %v", round, i, ch, u0+got.Delta, u0+want.Delta)
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
	base := s.Utility(u)
	cfgBefore := s.Cfg.Clone()

	moves := make([]config.Change, 120)
	for i := range moves {
		moves[i] = randomBatchChange(rng, m.Net.NumSectors())
	}
	results := s.SpeculateBatch(moves, u, nil)
	if len(results) != len(moves) {
		t.Fatalf("got %d results for %d moves", len(results), len(moves))
	}
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
		if relDiff(base+r.Delta, want) > 1e-9 {
			t.Fatalf("move %d (%v): batch %v, full evaluation %v", i, moves[i], base+r.Delta, want)
		}
	}
	// Scoring must not have mutated the state.
	if !s.Cfg.Equal(cfgBefore) {
		t.Fatal("batch scoring mutated the configuration")
	}
	if got := s.Utility(u); got != base {
		t.Fatalf("batch scoring moved the full-scan utility: %v -> %v", base, got)
	}
}

// TestSpeculateBatchCurveOverride: a sector answering from a tabulated
// link curve (InstallLinkTable) must be scored from that curve. The
// table is the model's own samples with one tilt setting shifted by
// 4 dB, so a scorer that fell back to the analytic pattern would miss;
// a retilt onto and off the shifted setting must each score within
// summation-order rounding of Apply followed by a full-scan Utility.
func TestSpeculateBatchCurveOverride(t *testing.T) {
	m := testModel(t)
	u := utility.Performance

	b := 0
	tilts := m.Net.Sectors[b].Tilts
	var settings []float64
	for i := tilts.MinIndex(); i <= tilts.MaxIndex(); i++ {
		settings = append(settings, tilts.Degrees(i))
	}
	table := m.SampleLinkDB(b, settings)
	shifted := tilts.MaxIndex() - tilts.MinIndex()
	for c := range table[shifted] {
		table[shifted][c] -= 4
	}
	if err := m.InstallLinkTable(b, settings, m.SectorCells(b), table); err != nil {
		t.Fatalf("InstallLinkTable: %v", err)
	}
	s := baseline(t, m)
	if s.Cfg.TiltIndex(b) == tilts.MaxIndex() {
		t.Fatal("baseline already sits on the shifted setting")
	}

	for _, ch := range []config.Change{
		{Sector: b, TiltDelta: tilts.MaxIndex()}, // onto the shifted setting (clamped)
		{Sector: b, TiltDelta: 1},
		{Sector: b, TiltDelta: -1},
	} {
		got := s.SpeculateBatch([]config.Change{ch}, u, nil)[0]
		if got.Err != nil {
			t.Fatal(got.Err)
		}
		ref := s.Clone()
		wantApplied := ref.MustApply(ch)
		if got.Applied != wantApplied {
			t.Fatalf("%v: applied %v, want %v", ch, got.Applied, wantApplied)
		}
		if gotU, wantU := s.Utility(u)+got.Delta, ref.Utility(u); relDiff(gotU, wantU) > 1e-9 {
			t.Fatalf("%v: curve-override sector scores %v, Apply gives %v", ch, gotU, wantU)
		}
	}
}

// TestSharedCoreConcurrentEngines is the shared-substrate race test: N
// views forked from one model — one immutable core — each drive their
// own State through interleaved batch scoring and commits.
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
			rng := rand.New(rand.NewSource(int64(100 + e)))
			for i := 0; i < 40; i++ {
				ch := randomBatchChange(rng, view.Net.NumSectors())
				if res := s.SpeculateBatch([]config.Change{ch}, u, nil)[0]; res.Err != nil {
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
}

// TestSpeculateIgnoresMemoState pins that SpeculateBatch prices from
// the state's radio values alone, whatever was evaluated on it before:
// never evaluated, evaluated then moved, a move undone, evaluated under
// the other objective, or the UE distribution changed. Every delta must
// match the clone-apply oracle.
func TestSpeculateIgnoresMemoState(t *testing.T) {
	m := testModel(t)
	u := utility.Performance
	central := m.Net.Sites[m.Net.CentralSite()].Sectors
	off := config.Change{Sector: central[0], TurnOff: true}
	boost := config.Change{Sector: central[1], PowerDelta: 3}

	rng := rand.New(rand.NewSource(31))
	moves := []config.Change{off, boost, {Sector: central[2], TiltDelta: -2}}
	for len(moves) < 60 {
		moves = append(moves, randomBatchChange(rng, m.Net.NumSectors()))
	}

	cases := []struct {
		name  string
		setup func(s *State)
	}{
		{"cold", func(s *State) {}},
		{"stale-after-apply", func(s *State) {
			s.Utility(u)
			s.MustApply(off)
		}},
		{"stale-after-undone-try", func(s *State) {
			s.Utility(u)
			applied := s.MustApply(off)
			s.Utility(u)
			s.MustApply(applied.Inverse())
		}},
		{"other-objective", func(s *State) {
			s.Utility(utility.Coverage)
		}},
		{"after-assign-users", func(s *State) {
			s.MustApply(boost)
			s.Utility(u)
			s.AssignUsersUniform()
		}},
		{"after-scale-users-at", func(s *State) {
			s.Utility(u)
			grids := servedGridsOf(s, central[1])
			s.Model.ScaleUsersAt(grids, 1.7)
			s.NoteUsersScaledAt(grids, 1.7)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			view := m.ForkUsers()
			s := view.NewState(config.New(view.Net))
			s.AssignUsersUniform()
			s = s.Clone() // a fresh clone of a never-evaluated state
			tc.setup(s)
			checkSpeculateVsClone(t, s, moves, u)
		})
	}
}

// checkSpeculateVsClone scores moves on s under u and requires that
// every delta is bit-identical to the delta a clone of s prices, and
// that every effective move lands within 1e-9 of the clone-apply oracle.
func checkSpeculateVsClone(t *testing.T, s *State, moves []config.Change, u utility.Func) {
	t.Helper()
	got := s.SpeculateBatch(moves, u, nil)
	clone := s.Clone()
	base := clone.Utility(u)
	want := clone.SpeculateBatch(moves, u, nil)
	effective := 0
	for i, mv := range moves {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("move %d (%v): %v / %v", i, mv, got[i].Err, want[i].Err)
		}
		if got[i].Applied != want[i].Applied {
			t.Fatalf("move %d (%v): applied %v, clone %v", i, mv, got[i].Applied, want[i].Applied)
		}
		if got[i].Delta != want[i].Delta {
			t.Fatalf("move %d (%v): delta %v, clone delta %v", i, mv, got[i].Delta, want[i].Delta)
		}
		ref := s.Clone()
		if ref.MustApply(mv).IsZero() {
			continue
		}
		effective++
		if oracle := ref.Utility(u); relDiff(base+got[i].Delta, oracle) > 1e-9 {
			t.Fatalf("move %d (%v): scored %v, clone-apply oracle %v", i, mv, base+got[i].Delta, oracle)
		}
	}
	if effective < len(moves)/2 {
		t.Fatalf("only %d of %d moves effective; scenario too degenerate", effective, len(moves))
	}
}

// seededMoves draws a seeded batch of search moves.
func seededMoves(m *Model, seed int64, n int) []config.Change {
	rng := rand.New(rand.NewSource(seed))
	moves := make([]config.Change, 0, n)
	for len(moves) < n {
		moves = append(moves, randomBatchChange(rng, m.Net.NumSectors()))
	}
	return moves
}

// TestTrackingInvalidatedByReassignment: changing the UE distribution
// must not leave stale per-grid utilities behind. The state is
// evaluated after a committed move, then AssignUsersUniform rebuilds the
// UE weights underneath it; the full-scan Utility must match a state
// that never saw the old distribution, and the deltas SpeculateBatch
// prices must match the clone-apply oracle.
func TestTrackingInvalidatedByReassignment(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	u := utility.Performance
	s.MustApply(config.Change{Sector: 0, PowerDelta: 2})
	s.Utility(u)

	s.AssignUsersUniform()
	fresh := m.NewState(s.Cfg.Clone())
	fresh.AssignUsersUniform()
	if got, want := s.Utility(u), fresh.Utility(u); relDiff(got, want) > 1e-9 {
		t.Fatalf("utility stale after reassignment: %v vs fresh state %v", got, want)
	}
	checkSpeculateVsClone(t, s, seededMoves(m, 17, 40), u)
}

// TestTrackingSwitchesObjective: scoring under one utility function
// after evaluating the state under the other prices the scored
// objective alone, in both directions.
func TestTrackingSwitchesObjective(t *testing.T) {
	m := testModel(t)
	moves := seededMoves(m, 19, 40)
	for _, dir := range []struct{ warm, score utility.Func }{
		{utility.Performance, utility.Coverage},
		{utility.Coverage, utility.Performance},
	} {
		s := baseline(t, m)
		s.Utility(dir.warm)
		checkSpeculateVsClone(t, s, moves, dir.score)
		if got, want := s.Utility(dir.score), s.Clone().Utility(dir.score); got != want {
			t.Fatalf("%s utility after a %s evaluation: %v, clone %v", dir.score.Name, dir.warm.Name, got, want)
		}
	}
}

// TestCloneDropsTracking: a clone prices its own moves against its own
// state, and the parent's utility and deltas are unaffected by the
// clone's moves.
func TestCloneDropsTracking(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	u := utility.Performance
	moves := seededMoves(m, 23, 40)
	parentUtility := s.Utility(u)
	parentDeltas := s.SpeculateBatch(moves, u, nil)

	c := s.Clone()
	c.MustApply(config.Change{Sector: 1, PowerDelta: 3})
	checkSpeculateVsClone(t, c, moves, u)
	c.Utility(u)

	if got := s.Utility(u); got != parentUtility {
		t.Fatalf("parent utility changed by clone activity: %v vs %v", got, parentUtility)
	}
	for i, r := range s.SpeculateBatch(moves, u, nil) {
		if r.Applied != parentDeltas[i].Applied || r.Delta != parentDeltas[i].Delta {
			t.Fatalf("move %d: parent scored %v/%v after clone activity, %v/%v before",
				i, r.Applied, r.Delta, parentDeltas[i].Applied, parentDeltas[i].Delta)
		}
	}
}

// TestScratchEpochRestartClearsMarks: the scratch pool hands one
// market's scratch to the next, and a market that needs more grid or
// sector slots restarts the epoch. No mark may then exceed the epoch:
// a grid or sector marked before the restart would read as already
// touched once the epoch counted up to its mark, and the move would be
// priced from the previous market's scratch rows.
func TestScratchEpochRestartClearsMarks(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	cells, secs := m.Grid.NumCells(), m.Net.NumSectors()
	for _, grow := range []struct {
		name        string
		cells, secs int
	}{
		{"more grids", cells + 1, secs},
		{"more sectors", cells, secs + 1},
	} {
		sc := &batchScratch{}
		sc.ensure(cells, secs)
		for i := 0; i < 40; i++ {
			sc.nextMove()
			sc.touchGrid(s, int32(i))
			sc.touchSec(int32(i % secs))
		}
		sc.ensure(grow.cells, grow.secs)
		for what, marks := range map[string][]uint32{"grid": sc.gridMark, "sector": sc.secMark} {
			for i, mark := range marks {
				if mark > sc.epoch {
					t.Fatalf("%s: %s %d keeps mark %d past the restarted epoch %d", grow.name, what, i, mark, sc.epoch)
				}
			}
		}
	}
}
