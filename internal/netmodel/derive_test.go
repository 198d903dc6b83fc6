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

// sameRadio fails unless got and want agree on everything an Apply
// chain keeps bit-identical to a fresh evaluation: serving sectors, max
// rates and their CQI buckets, per-entry received powers and link rows,
// and served-grid counts, with loads equal to within summation-order
// rounding and the served-grid index consistent. Totals and SINRs may
// differ in the last bits after Applys (totalMw is patched with
// differences), so sameState checks those on derived states only.
func sameRadio(t *testing.T, where string, got, want *State) {
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
	}
	for b := 0; b < m.Net.NumSectors(); b++ {
		if !relClose(got.Load(b), want.Load(b), 1e-9) {
			t.Fatalf("%s: sector %d load %v, NewState %v", where, b, got.Load(b), want.Load(b))
		}
		if got.ServedGrids(b) != want.ServedGrids(b) {
			t.Fatalf("%s: sector %d serves %d grids, NewState %d", where, b, got.ServedGrids(b), want.ServedGrids(b))
		}
	}
	for _, arr := range []struct {
		name      string
		got, want []float64
	}{
		{"rmax", got.rmax, want.rmax},
		{"sinrLo", got.sinrLo, want.sinrLo},
		{"sinrHi", got.sinrHi, want.sinrHi},
		{"rpMw", got.rpMw, want.rpMw},
		{"linkDB", slices.Concat(got.linkDB...), slices.Concat(want.linkDB...)},
	} {
		if len(arr.got) != len(arr.want) {
			t.Fatalf("%s: %s has %d entries, NewState %d", where, arr.name, len(arr.got), len(arr.want))
		}
		for i := range arr.want {
			eq(arr.name, i, arr.got[i], arr.want[i])
		}
	}
	checkServedIndex(t, got, where)
}

// sameState fails unless got and want are bit-identical on every
// per-grid and per-sector read, on the full-scan utility and the KPI
// aggregate utility, and on the radio arrays and served-grid index
// underneath them.
func sameState(t *testing.T, where string, got, want *State) {
	t.Helper()
	sameRadio(t, where, got, want)
	m := want.Model
	eq := func(what string, i int, g, w float64) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %s[%d] = %v, NewState %v", where, what, i, g, w)
		}
	}
	for g := 0; g < m.Grid.NumCells(); g++ {
		eq("SINRdB", g, got.SINRdB(g), want.SINRdB(g))
		eq("RateBps", g, got.RateBps(g), want.RateBps(g))
	}
	for b := 0; b < m.Net.NumSectors(); b++ {
		eq("Load", b, got.Load(b), want.Load(b))
		if !slices.Equal(got.servedList[b], want.servedList[b]) {
			t.Fatalf("%s: sector %d served list differs", where, b)
		}
	}
	for _, arr := range []struct {
		name      string
		got, want []float64
	}{
		{"totalMw", got.totalMw, want.totalMw},
		{"bestMw", got.bestMw, want.bestMw},
	} {
		for i := range arr.want {
			eq(arr.name, i, arr.got[i], arr.want[i])
		}
	}
	if !slices.Equal(got.servedPos, want.servedPos) {
		t.Fatalf("%s: servedPos differs", where)
	}
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

// sectorRows is a deep copy of a state's link rows and received powers.
type sectorRows struct {
	linkDB [][]float64
	rpMw   []float64
}

func copyRows(s *State) sectorRows {
	out := sectorRows{rpMw: slices.Clone(s.rpMw)}
	for _, row := range s.linkDB {
		out.linkDB = append(out.linkDB, slices.Clone(row))
	}
	return out
}

// sameRows fails unless s's link rows and received powers are bit for
// bit the ones recorded in want.
func sameRows(t *testing.T, where string, s *State, want sectorRows) {
	t.Helper()
	for b, row := range want.linkDB {
		if len(s.linkDB[b]) != len(row) {
			t.Fatalf("%s: sector %d link row has %d entries, want %d", where, b, len(s.linkDB[b]), len(row))
		}
		for i, v := range row {
			if math.Float64bits(s.linkDB[b][i]) != math.Float64bits(v) {
				t.Fatalf("%s: linkDB[%d][%d] = %v, was %v", where, b, i, s.linkDB[b][i], v)
			}
		}
	}
	for i, v := range want.rpMw {
		if math.Float64bits(s.rpMw[i]) != math.Float64bits(v) {
			t.Fatalf("%s: rpMw[%d] = %v, was %v", where, i, s.rpMw[i], v)
		}
	}
}

// applyEveryShape runs tilt, off, on and power Applys on s, each on a
// sector whose setting the move really changes, then a few random moves.
func applyEveryShape(t *testing.T, s *State, rng *rand.Rand) {
	t.Helper()
	n := s.Model.Net.NumSectors()
	for _, mk := range []func(b int) config.Change{
		func(b int) config.Change { return config.Change{Sector: b, TiltDelta: 1} },
		func(b int) config.Change { return config.Change{Sector: b, TiltDelta: -1} },
		func(b int) config.Change { return config.Change{Sector: b, TurnOff: true} },
		func(b int) config.Change { return config.Change{Sector: b, TurnOn: true} },
		func(b int) config.Change { return config.Change{Sector: b, PowerDelta: -2} },
		func(b int) config.Change { return config.Change{Sector: b, PowerDelta: 1} },
	} {
		applied := config.Change{}
		for i, off := 0, rng.Intn(n); applied.IsZero() && i < n; i++ {
			applied = s.MustApply(mk((off + i) % n))
		}
		if applied.IsZero() {
			t.Fatalf("no sector takes %v", mk(0))
		}
	}
	for i := 0; i < 6; i++ {
		s.MustApply(randomBatchChange(rng, n))
	}
}

// TestSharedRowsStayImmutable: Clone and Derive (also onto a ForkUsers
// fork) share the source's link rows, so every Apply shape on either
// side must leave the other side's rows and received powers bit for
// bit as they were, and each side must still equal NewState of its own
// configuration on every array an Apply keeps bit-identical.
func TestSharedRowsStayImmutable(t *testing.T) {
	m := testModel(t)
	fork := m.ForkUsers()
	fork.ScaleUsersAt(servedGridsOf(baseline(t, m), 1), 1.7)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		src := baseline(t, m)
		for i := rng.Intn(10); i > 0; i-- {
			src.MustApply(randomBatchChange(rng, m.Net.NumSectors()))
		}
		copies := map[string]*State{
			"clone":       src.Clone(),
			"derive":      src.Derive(m, randomTarget(rng, src.Cfg)),
			"derive-fork": src.Derive(fork, randomTarget(rng, src.Cfg)),
		}
		names := []string{"clone", "derive", "derive-fork"}

		// Copies move; the source must not see it.
		before := copyRows(src)
		for _, name := range names {
			c := copies[name]
			applyEveryShape(t, c, rng)
			where := fmt.Sprintf("trial %d: %s", trial, name)
			sameRows(t, where+" moved, source", src, before)
			sameRadio(t, where, c, c.Model.NewState(c.Cfg.Clone()))
		}
		sameRadio(t, fmt.Sprintf("trial %d: source", trial), src, m.NewState(src.Cfg.Clone()))

		// The source moves; no copy may see it.
		kept := map[string]sectorRows{}
		for _, name := range names {
			kept[name] = copyRows(copies[name])
		}
		applyEveryShape(t, src, rng)
		for b := range m.Net.Sectors {
			src.RefreshSector(b)
		}
		for _, name := range names {
			sameRows(t, fmt.Sprintf("trial %d: source moved, %s", trial, name), copies[name], kept[name])
		}
		sameRadio(t, fmt.Sprintf("trial %d: moved source", trial), src, m.NewState(src.Cfg.Clone()))
	}
}

// TestSharedRowsConcurrentDeriveRefresh: goroutines derive from one
// shared source and price power moves against the rows they share with
// it, while other goroutines refresh and retilt clones of the same
// source. Under -race this proves a refresh installs a new row rather
// than writing into a shared one.
func TestSharedRowsConcurrentDeriveRefresh(t *testing.T) {
	m := testModel(t)
	src := baseline(t, m)
	before := copyRows(src)
	n := m.Net.NumSectors()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(60 + w)))
			fork := m.ForkUsers()
			for i := 0; i < 3; i++ {
				d := src.Derive(fork, src.Cfg.Clone())
				d.SpeculateBatch([]config.Change{{Sector: rng.Intn(n), PowerDelta: 2}}, utility.Performance, false, nil)
				d.MustApply(config.Change{Sector: rng.Intn(n), PowerDelta: -1})
				want := fork.NewState(d.Cfg.Clone())
				if gu, wu := d.UtilityRead(utility.Performance), want.UtilityRead(utility.Performance); gu != wu {
					t.Errorf("deriver %d pass %d: utility %v, NewState %v", w, i, gu, wu)
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(80 + w)))
			for i := 0; i < 3; i++ {
				c := src.Clone()
				for b := 0; b < n; b++ {
					c.RefreshSector(b)
				}
				c.MustApply(config.Change{Sector: rng.Intn(n), TiltDelta: 1})
				c.MustApply(config.Change{Sector: rng.Intn(n), TurnOff: true})
			}
		}(w)
	}
	wg.Wait()
	sameRows(t, "shared source", src, before)
}
