package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"magus/internal/config"
	"magus/internal/utility"
)

// randomTarget returns a configuration a few random moves away from
// cfg: none at all with probability 1/4, otherwise up to 8 moves of
// every shape (power, tilt, off, on).
func randomTarget(rng *rand.Rand, cfg *config.Config) *config.Config {
	out := cfg.Clone()
	if rng.Intn(4) == 0 {
		return out
	}
	for i := rng.Intn(8) + 1; i > 0; i-- {
		if _, err := out.Apply(randomBatchChange(rng, out.NumSectors())); err != nil {
			panic(err)
		}
	}
	return out
}

// sameState fails unless got and want are bit-identical on every
// per-grid and per-sector read, on the full-scan utility and the KPI
// aggregate utility, and on the radio arrays and served-grid index
// underneath them.
func sameState(t *testing.T, where string, got, want *State) {
	t.Helper()
	m := want.Model
	eq := func(what string, i int, g, w float64) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %s[%d] = %v, NewState %v", where, what, i, g, w)
		}
	}
	for g := 0; g < m.Grid.NumCells(); g++ {
		if got.ServingSector(g) != want.ServingSector(g) {
			t.Fatalf("%s: grid %d served by %d, NewState %d", where, g, got.ServingSector(g), want.ServingSector(g))
		}
		eq("MaxRateBps", g, got.MaxRateBps(g), want.MaxRateBps(g))
		eq("SINRdB", g, got.SINRdB(g), want.SINRdB(g))
		eq("RateBps", g, got.RateBps(g), want.RateBps(g))
	}
	for b := 0; b < m.Net.NumSectors(); b++ {
		eq("Load", b, got.Load(b), want.Load(b))
		if got.ServedGrids(b) != want.ServedGrids(b) {
			t.Fatalf("%s: sector %d serves %d grids, NewState %d", where, b, got.ServedGrids(b), want.ServedGrids(b))
		}
		if !slices.Equal(got.servedList[b], want.servedList[b]) {
			t.Fatalf("%s: sector %d served list differs", where, b)
		}
	}
	for _, arr := range []struct {
		name      string
		got, want []float64
	}{
		{"rpMw", got.rpMw, want.rpMw},
		{"linkDB", got.linkDB, want.linkDB},
		{"totalMw", got.totalMw, want.totalMw},
		{"bestMw", got.bestMw, want.bestMw},
		{"sinrLo", got.sinrLo, want.sinrLo},
		{"sinrHi", got.sinrHi, want.sinrHi},
	} {
		for i := range arr.want {
			eq(arr.name, i, arr.got[i], arr.want[i])
		}
	}
	if !slices.Equal(got.servedPos, want.servedPos) {
		t.Fatalf("%s: servedPos differs", where)
	}
	checkServedIndex(t, got, where)
	for _, u := range []utility.Func{utility.Performance, utility.Coverage} {
		eq("Utility/"+u.Name, 0, got.Utility(u), want.Utility(u))
	}
	got.EnableKPIAggregates(utility.Performance, 1)
	want.EnableKPIAggregates(utility.Performance, 1)
	eq("KPIUtility", 0, got.KPIUtility(), want.KPIUtility())
}

// TestDeriveMatchesNewState is Derive's contract: from source states
// reached by random Apply sequences, deriving random target
// configurations onto the source model and onto a ForkUsers fork with
// its own (rescaled) users must equal NewState of the target on that
// model bit for bit, and must leave the source untouched.
func TestDeriveMatchesNewState(t *testing.T) {
	m := testModel(t)
	src := baseline(t, m)
	fork := m.ForkUsers()
	fork.ScaleUsersAt(servedGridsOf(src, 2), 2.5)
	fork.ScaleUsers(1.3)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		for i := rng.Intn(12); i > 0; i-- {
			src.MustApply(randomBatchChange(rng, m.Net.NumSectors()))
		}
		before := src.Clone()
		for _, view := range []*Model{m, fork} {
			cfg := randomTarget(rng, src.Cfg)
			where := fmt.Sprintf("trial %d (fork %v)", trial, view != m)
			sameState(t, where, src.Derive(view, cfg.Clone()), view.NewState(cfg))
		}
		sameState(t, fmt.Sprintf("trial %d source", trial), src.Clone(), before)
	}
}

// TestDeriveRederivesOtherLinkTables derives onto a fork that installed
// its own link tables: every sector's entries come from the fork's
// tables, not the source's cached budgets.
func TestDeriveRederivesOtherLinkTables(t *testing.T) {
	m := testModel(t)
	src := baseline(t, m)
	fork := m.ForkUsers()
	for b := range m.Net.Sectors {
		settings := tiltDegreesOf(m, b)
		rows := m.SampleLinkDB(b, settings)
		for _, row := range rows {
			for i := range row {
				row[i] -= float64(b % 3)
			}
		}
		if err := fork.InstallLinkTable(b, settings, m.SectorCells(b), rows); err != nil {
			t.Fatal(err)
		}
	}
	sameState(t, "fork tables", src.Derive(fork, src.Cfg.Clone()), fork.NewState(src.Cfg.Clone()))
}

func TestDerivePanicsAcrossCores(t *testing.T) {
	src := baseline(t, testModel(t))
	other := testModel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Derive onto a model over another core did not panic")
		}
	}()
	src.Derive(other, src.Cfg.Clone())
}

// TestDeriveConcurrentOnSharedState derives from one shared source
// state on many goroutines at once, each onto its own fork — the
// simulator's use of a cached engine's baseline. Under -race this
// proves Derive only reads its source.
func TestDeriveConcurrentOnSharedState(t *testing.T) {
	m := testModel(t)
	src := baseline(t, m)
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + w)))
			fork := m.ForkUsers()
			for i := 0; i < 4; i++ {
				cfg := randomTarget(rng, src.Cfg)
				got := src.Derive(fork, cfg.Clone())
				want := fork.NewState(cfg)
				for g := 0; g < m.Grid.NumCells(); g++ {
					if got.ServingSector(g) != want.ServingSector(g) || got.MaxRateBps(g) != want.MaxRateBps(g) {
						t.Errorf("worker %d derive %d: grid %d differs from NewState", w, i, g)
						return
					}
				}
				if gu, wu := got.UtilityRead(utility.Performance), want.UtilityRead(utility.Performance); gu != wu {
					t.Errorf("worker %d derive %d: utility %v, NewState %v", w, i, gu, wu)
				}
			}
		}(w)
	}
	wg.Wait()
}
