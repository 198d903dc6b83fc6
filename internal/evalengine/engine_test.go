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
// worker count.
func TestParallelScoresMatchSequential(t *testing.T) {
	u := utility.Performance
	var want []Score
	for _, workers := range []int{1, 2, 4} {
		st, neighbors := testState(t, 5)
		e := New(st, u, Config{Workers: workers})
		got, err := e.ScoreAll(candidateMoves(neighbors, 2))
		if err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()
		if snap.DeltaEvaluations == 0 || snap.FullEvaluations != 0 {
			t.Errorf("workers=%d: scoring must be delta-only: %+v", workers, snap)
		}
		if workers == 1 {
			want = got
			if snap.ParallelBatches != 0 {
				t.Errorf("single-worker batch counted as parallel: %+v", snap)
			}
			continue
		}
		if snap.ParallelBatches != 1 {
			t.Errorf("workers=%d: parallel batch not recorded: %+v", workers, snap)
		}
		if snap.WorkerUtilization <= 0 || snap.WorkerUtilization > 1.000001 {
			t.Errorf("workers=%d: utilization out of range: %v", workers, snap.WorkerUtilization)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d candidate %d: %+v, workers=1 gave %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSharedStateConcurrentScoring drives an 8-worker engine through
// interleaved score/commit rounds — every ScoreAll fans goroutines out
// over the ONE committed state — beside a 1-worker engine that must
// give the same scores and commits. Run under -race this is the proof the
// batch scoring path never writes shared state: nothing is enabled or
// warmed before the fan-out beyond the Utility scans New and Commit run.
func TestSharedStateConcurrentScoring(t *testing.T) {
	st, neighbors := testState(t, 11)
	if len(neighbors) < 2 {
		t.Skip("not enough neighbors")
	}
	u := utility.Performance
	e := New(st, u, Config{Workers: 8})
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
		seq, err := exact.ScoreAll(moves)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if scores[i] != seq[i] {
				t.Fatalf("round %d candidate %d: %+v (8 workers) != %+v (1 worker)", round, i, scores[i], seq[i])
			}
		}
		// Commit the best-scoring move; the next round scores against the
		// mutated state.
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
			t.Fatalf("round %d: committed utility %v (8 workers) != %v (1 worker)", round, e.Current(), exact.Current())
		}
	}
}

// TestScoresAfterCommitsMatchOracle: after commits move the committed
// state between batches, every score still matches the exact oracle on
// the new configuration.
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
	res := st.SpeculateBatch(moves, u, nil)
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

// TestScoreAllReadOnly: scoring every move shape across a worker
// fan-out leaves the committed configuration equal and the full-scan
// utility bit-equal.
func TestScoreAllReadOnly(t *testing.T) {
	u := utility.Performance
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
	e := New(st, u, Config{Workers: 4})
	if _, err := e.ScoreAll(moves); err != nil {
		t.Fatal(err)
	}
	if !st.Cfg.Equal(cfg) {
		t.Fatal("ScoreAll mutated the configuration")
	}
	if after := st.Utility(u); after != before {
		t.Fatalf("full-scan utility %v -> %v across ScoreAll", before, after)
	}
	if fresh := st.Clone().Utility(u); fresh != before {
		t.Fatalf("a fresh scan of the scored state gives %v, want %v", fresh, before)
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

// TestSharedBeforeConcurrentReads: an engine's C_before is shared by
// every plan on the engine, and each plan evaluates it (the search cap
// and powerPhase's base utility) while others score candidates against
// it. Several goroutines call Utility and SpeculateBatch on one fresh
// C_before at once, under both objectives; every result must equal the
// sequential one bit for bit. The sequential reference is a clone, so
// the shared state's fragile set is built by the racing scorers. Run
// under -race this certifies that both calls only read the state.
func TestSharedBeforeConcurrentReads(t *testing.T) {
	st, neighbors := testState(t, 11)
	before := st.Model.NewState(config.New(st.Model.Net))
	var moves []config.Change
	for _, d := range []float64{-2, 1, 3} {
		moves = append(moves, candidateMoves(neighbors, d)...)
	}
	for _, b := range neighbors[:min(4, len(neighbors))] {
		moves = append(moves, config.Change{Sector: b, TiltDelta: 1}, config.Change{Sector: b, TurnOff: true})
	}
	objectives := []utility.Func{utility.Performance, utility.Coverage}
	type reading struct {
		utility float64
		scores  []netmodel.BatchResult
	}
	read := func(s *netmodel.State) []reading {
		out := make([]reading, len(objectives))
		for i, u := range objectives {
			out[i] = reading{s.Utility(u), s.SpeculateBatch(moves, u, nil)}
		}
		return out
	}
	want := read(before.Clone())

	const readers = 6
	got := make([][]reading, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r] = read(before)
		}(r)
	}
	wg.Wait()
	for r := range got {
		for i, u := range objectives {
			g, w := got[r][i], want[i]
			if math.Float64bits(g.utility) != math.Float64bits(w.utility) {
				t.Fatalf("reader %d %s: utility %v, sequential %v", r, u.Name, g.utility, w.utility)
			}
			for j := range w.scores {
				if g.scores[j].Applied != w.scores[j].Applied ||
					math.Float64bits(g.scores[j].Delta) != math.Float64bits(w.scores[j].Delta) {
					t.Fatalf("reader %d %s move %v: %+v, sequential %+v", r, u.Name, moves[j], g.scores[j], w.scores[j])
				}
			}
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
