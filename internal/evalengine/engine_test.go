package evalengine

import (
	"context"
	"math"
	"sync"
	"testing"

	"magus/internal/config"
	"magus/internal/geo"
	"magus/internal/netmodel"
	"magus/internal/propagation"
	"magus/internal/topology"
	"magus/internal/utility"
)

// testState builds a small market with a degraded central sector, the
// shape every search run starts from.
func testState(tb testing.TB, seed int64) (*netmodel.State, []int) {
	tb.Helper()
	net := topology.MustGenerate(topology.GenConfig{
		Seed:   seed,
		Class:  topology.Suburban,
		Bounds: geo.NewRectCentered(geo.Point{}, 5000, 5000),
	})
	spm := propagation.MustNewSPM(2.635e9, nil)
	m := netmodel.MustNewModel(net, spm, net.Bounds, netmodel.Params{CellSizeM: 200})
	st := m.NewState(config.New(net))
	st.AssignUsersUniform()
	central := net.CentralSite()
	target := net.Sites[central].Sectors[0]
	st.MustApply(config.Change{Sector: target, TurnOff: true})
	neighbors := net.NeighborSectors([]int{target}, 3500)
	return st, neighbors
}

// candidateMoves builds one power-up candidate per neighbor.
func candidateMoves(neighbors []int, delta float64) []config.Change {
	moves := make([]config.Change, len(neighbors))
	for i, b := range neighbors {
		moves[i] = config.Change{Sector: b, PowerDelta: delta}
	}
	return moves
}

// assertScoresMatchOracle checks every score against the exact oracle:
// apply the move to a clone of the committed state and run the full-scan
// Utility. Scores are exact current plus a delta summed in a different
// order, so they may differ from the oracle by rounding only.
func assertScoresMatchOracle(t *testing.T, st *netmodel.State, u utility.Func, scores []Score) {
	t.Helper()
	for i, sc := range scores {
		ref := st.Clone()
		applied, err := ref.Apply(sc.Move)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Applied != applied {
			t.Fatalf("candidate %d: applied %v != oracle %v", i, sc.Applied, applied)
		}
		if applied.IsZero() {
			continue
		}
		if want := ref.Utility(u); relDiff(sc.Utility, want) > 1e-12 {
			t.Fatalf("candidate %d: utility %v != oracle %v", i, sc.Utility, want)
		}
	}
}

func TestSequentialScoreMatchesManualLoop(t *testing.T) {
	st, neighbors := testState(t, 3)
	cfg := st.Cfg.Clone()
	u := utility.Performance
	e := New(st, u, Config{})
	if got, want := e.Current(), st.Clone().Utility(u); got != want {
		t.Fatalf("initial current %v != %v", got, want)
	}
	scores, err := e.ScoreAll(candidateMoves(neighbors, 2))
	if err != nil {
		t.Fatal(err)
	}
	assertScoresMatchOracle(t, st, u, scores)
	// Scoring must leave the committed state untouched.
	if !st.Cfg.Equal(cfg) {
		t.Fatal("ScoreAll mutated the committed configuration")
	}
}

// TestParallelScoresMatchSequential: every move is priced independently
// of how the batch is chunked, so the scores are bit-identical for every
// worker count, in float and in fixed point alike.
func TestParallelScoresMatchSequential(t *testing.T) {
	u := utility.Performance
	for _, fixed := range []bool{false, true} {
		var want []Score
		for _, workers := range []int{1, 2, 4} {
			st, neighbors := testState(t, 5)
			e := New(st, u, Config{Workers: workers, FixedPoint: fixed})
			got, err := e.ScoreAll(candidateMoves(neighbors, 2))
			if err != nil {
				t.Fatal(err)
			}
			snap := e.Snapshot()
			if snap.DeltaEvaluations == 0 || snap.FullEvaluations != 0 {
				t.Errorf("fixed=%v workers=%d: scoring must be delta-only: %+v", fixed, workers, snap)
			}
			if workers == 1 {
				want = got
				if snap.ParallelBatches != 0 {
					t.Errorf("fixed=%v: single-worker batch counted as parallel: %+v", fixed, snap)
				}
				continue
			}
			if snap.ParallelBatches != 1 {
				t.Errorf("fixed=%v workers=%d: parallel batch not recorded: %+v", fixed, workers, snap)
			}
			if snap.WorkerUtilization <= 0 || snap.WorkerUtilization > 1.000001 {
				t.Errorf("fixed=%v workers=%d: utilization out of range: %v", fixed, workers, snap.WorkerUtilization)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fixed=%v workers=%d candidate %d: %+v, workers=1 gave %+v", fixed, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFixedPointScoresMatchSequential pins the fixed-point kernel to
// the float one within the quantization budget: same applied changes,
// utilities within 0.1%.
func TestFixedPointScoresMatchSequential(t *testing.T) {
	stSeq, neighbors := testState(t, 5)
	stFix, _ := testState(t, 5)
	u := utility.Performance
	seq := New(stSeq, u, Config{Workers: 1})
	fix := New(stFix, u, Config{Workers: 4, FixedPoint: true})
	if !fix.FixedPoint() {
		t.Fatal("FixedPoint() must report the configured mode")
	}
	moves := candidateMoves(neighbors, 2)

	sGot, err := seq.ScoreAll(moves)
	if err != nil {
		t.Fatal(err)
	}
	fGot, err := fix.ScoreAll(moves)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sGot {
		if sGot[i].Applied != fGot[i].Applied {
			t.Fatalf("candidate %d: applied %v (seq) vs %v (fixed)", i, sGot[i].Applied, fGot[i].Applied)
		}
		if sGot[i].Applied.IsZero() {
			continue
		}
		if relDiff(sGot[i].Utility, fGot[i].Utility) > 1e-3 {
			t.Fatalf("candidate %d: utility %v (seq) vs %v (fixed) beyond 0.1%%", i, sGot[i].Utility, fGot[i].Utility)
		}
	}
	snap := fix.Snapshot()
	if !snap.FixedPoint || snap.ParallelBatches != 1 || snap.DeltaEvaluations == 0 {
		t.Errorf("fixed-point stats not recorded: %+v", snap)
	}
}

// TestSharedStateConcurrentScoring drives a fixed-point engine through
// interleaved score/commit rounds — every ScoreAll fans goroutines out
// over the ONE committed state. Run under -race this is the proof the
// batch scoring path never writes shared state: nothing is enabled or
// warmed before the fan-out beyond the Utility scans New and Commit run.
func TestSharedStateConcurrentScoring(t *testing.T) {
	st, neighbors := testState(t, 11)
	if len(neighbors) < 2 {
		t.Skip("not enough neighbors")
	}
	u := utility.Performance
	e := New(st, u, Config{Workers: 8, FixedPoint: true})
	exact := New(st.Clone(), u, Config{Workers: 1})
	deltas := []float64{-2, -1, 1, 2}
	for round := 0; round < 6; round++ {
		var moves []config.Change
		for _, b := range neighbors {
			for _, d := range deltas {
				moves = append(moves, config.Change{Sector: b, PowerDelta: d})
			}
		}
		scores, err := e.ScoreAll(moves)
		if err != nil {
			t.Fatal(err)
		}
		// Commit the best-scoring move; the next round scores against the
		// mutated state and the memo Commit refreshed.
		best := -1
		for i, sc := range scores {
			if sc.Applied.IsZero() {
				continue
			}
			if best < 0 || sc.Utility > scores[best].Utility {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if _, _, err := e.Commit(scores[best].Applied); err != nil {
			t.Fatal(err)
		}
		if _, _, err := exact.Commit(scores[best].Applied); err != nil {
			t.Fatal(err)
		}
		// Committed utilities are exact full scans in both engines.
		if e.Current() != exact.Current() {
			t.Fatalf("round %d: committed utility %v (fixed engine) != %v (exact engine)", round, e.Current(), exact.Current())
		}
	}
}

// TestScoresAfterCommitsMatchOracle: after commits move the committed
// state (and refresh the Utility memo between batches), every score still
// matches the exact oracle on the new configuration.
func TestScoresAfterCommitsMatchOracle(t *testing.T) {
	st, neighbors := testState(t, 7)
	if len(neighbors) < 3 {
		t.Skip("not enough neighbors")
	}
	u := utility.Performance
	e := New(st, u, Config{Workers: 2})
	moves := candidateMoves(neighbors, 1)
	if _, err := e.ScoreAll(moves); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := e.Commit(moves[i]); err != nil {
			t.Fatal(err)
		}
		if e.Current() != st.Clone().Utility(u) {
			t.Fatalf("commit %d: current %v is not the full-scan utility", i, e.Current())
		}
		scores, err := e.ScoreAll(moves)
		if err != nil {
			t.Fatal(err)
		}
		assertScoresMatchOracle(t, st, u, scores)
	}
}

// TestNoRateChangeScoresCurrent: a move that changes no grid's rate has
// a delta of exactly zero and scores exactly Current(), so rounding can
// never make a do-nothing move look like an improvement.
func TestNoRateChangeScoresCurrent(t *testing.T) {
	st, neighbors := testState(t, 3)
	u := utility.Performance
	// testState turned the central site's first sector off; power and
	// tilt changes on it are configuration bookkeeping only.
	target := st.Model.Net.Sites[st.Model.Net.CentralSite()].Sectors[0]
	moves := []config.Change{
		{Sector: target, PowerDelta: -1},
		{Sector: target, TiltDelta: 1},
	}
	// Tiny power nudges on live sectors: every received power changes,
	// but (almost) no grid leaves its CQI rate bucket.
	for _, b := range neighbors {
		moves = append(moves, config.Change{Sector: b, PowerDelta: -1e-9})
	}
	e := New(st, u, Config{})
	// Commit a few real moves first, so the moves are scored against a
	// mutated state rather than the one New evaluated.
	for _, b := range neighbors[:3] {
		if _, err := e.ScoreAll([]config.Change{{Sector: b, PowerDelta: 1}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Commit(config.Change{Sector: b, PowerDelta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	scores, err := e.ScoreAll(moves)
	if err != nil {
		t.Fatal(err)
	}
	res := st.SpeculateBatch(moves, u, false, nil)
	liveNoops := 0
	for i, sc := range scores {
		if sc.Applied.IsZero() {
			t.Fatalf("move %d (%v) was clamped to a no-op", i, moves[i])
		}
		if i < 2 && res[i].Delta != 0 {
			t.Fatalf("off-air bookkeeping move %v has delta %v", moves[i], res[i].Delta)
		}
		if res[i].Delta != 0 {
			continue
		}
		if i >= 2 {
			liveNoops++
		}
		if sc.Utility != e.Current() {
			t.Fatalf("move %d (%v): zero-delta score %v != Current() %v", i, moves[i], sc.Utility, e.Current())
		}
	}
	t.Logf("live zero-delta moves: %d of %d", liveNoops, len(neighbors))
	if liveNoops == 0 {
		t.Fatal("no live-sector move left every rate unchanged; the nudge is too large")
	}
}

// TestScoreAllReadOnly: scoring every move shape, in float and fixed
// point and across a worker fan-out, leaves the committed configuration
// equal and the full-scan utility bit-equal.
func TestScoreAllReadOnly(t *testing.T) {
	u := utility.Performance
	for _, fixed := range []bool{false, true} {
		st, neighbors := testState(t, 9)
		cfg := st.Cfg.Clone()
		before := st.Utility(u)
		var moves []config.Change
		for _, b := range neighbors {
			moves = append(moves,
				config.Change{Sector: b, PowerDelta: 2},
				config.Change{Sector: b, PowerDelta: -2},
				config.Change{Sector: b, TiltDelta: 1},
				config.Change{Sector: b, TiltDelta: -1},
				config.Change{Sector: b, TurnOff: true})
		}
		e := New(st, u, Config{Workers: 4, FixedPoint: fixed})
		if _, err := e.ScoreAll(moves); err != nil {
			t.Fatal(err)
		}
		if !st.Cfg.Equal(cfg) {
			t.Fatalf("fixed=%v: ScoreAll mutated the configuration", fixed)
		}
		if after := st.Utility(u); after != before {
			t.Fatalf("fixed=%v: full-scan utility %v -> %v across ScoreAll", fixed, before, after)
		}
		if fresh := st.Clone().Utility(u); fresh != before {
			t.Fatalf("fixed=%v: a fresh scan of the scored state gives %v, want %v", fixed, fresh, before)
		}
	}
}

// TestCommitReevaluatesExactly: Commit installs the exact full-scan
// utility of the committed state, and every Commit counts as one full
// evaluation whether or not the move changed anything.
func TestCommitReevaluatesExactly(t *testing.T) {
	st, neighbors := testState(t, 9)
	u := utility.Performance
	e := New(st, u, Config{})

	mv := config.Change{Sector: neighbors[0], PowerDelta: -2}
	scores, err := e.ScoreAll([]config.Change{mv})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].Applied.IsZero() {
		t.Skip("first neighbor at min power")
	}
	applied, got, err := e.Commit(mv)
	if err != nil {
		t.Fatal(err)
	}
	if applied != scores[0].Applied {
		t.Fatalf("Commit applied %v, ScoreAll priced %v", applied, scores[0].Applied)
	}
	if want := st.Clone().Utility(u); got != want || e.Current() != want {
		t.Fatalf("Commit utility %v (current %v) != full scan %v", got, e.Current(), want)
	}
	if relDiff(got, scores[0].Utility) > 1e-9 {
		t.Errorf("committed utility %v far from its score %v", got, scores[0].Utility)
	}

	// A no-op commit re-evaluates but accepts nothing.
	if applied, _, err := e.Commit(config.Change{Sector: neighbors[0]}); err != nil || !applied.IsZero() {
		t.Fatalf("no-op commit: applied %v, err %v", applied, err)
	}
	snap := e.Snapshot()
	if snap.MovesProposed != 1 || snap.MovesAccepted != 1 || snap.FullEvaluations != 2 || snap.DeltaEvaluations != 1 {
		t.Errorf("stats: %+v", snap)
	}
}

func TestContextCancellation(t *testing.T) {
	st, neighbors := testState(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(st, utility.Performance, Config{Workers: 2, Ctx: ctx})
	if _, err := e.ScoreAll(candidateMoves(neighbors, 1)); err == nil {
		t.Fatal("cancelled context should abort scoring")
	}
}

// TestEngineStress runs several engines concurrently — each a parallel
// search over its own state clone hierarchy — the shape a campaign
// worker pool produces. Run under -race this is the engine's data-race
// certification.
func TestEngineStress(t *testing.T) {
	base, neighbors := testState(t, 11)
	u := utility.Performance
	const searches = 4
	var wg sync.WaitGroup
	errc := make(chan error, searches)
	for i := 0; i < searches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := base.Clone()
			e := New(st, u, Config{Workers: 3})
			moves := candidateMoves(neighbors, float64(1+i%3))
			for round := 0; round < 4; round++ {
				scores, err := e.ScoreAll(moves)
				if err != nil {
					errc <- err
					return
				}
				best, bestU := -1, e.Current()
				for j, sc := range scores {
					if !sc.Applied.IsZero() && sc.Utility > bestU {
						best, bestU = j, sc.Utility
					}
				}
				if best >= 0 {
					if _, _, err := e.Commit(moves[best]); err != nil {
						errc <- err
						return
					}
				}
				_ = e.Snapshot()
			}
			errc <- nil
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}
