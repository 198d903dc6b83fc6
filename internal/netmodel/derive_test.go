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
// rates and their CQI buckets, sector powers and link rows, and
// served-grid counts, with loads equal to within summation-order
// rounding and the served-grid index consistent. Totals and SINRs may
// differ in the last bits after Applys (totalMw is patched with
// differences), so sameState checks those on fresh states only.
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
		{"powerMw", got.powerMw, want.powerMw},
		{"linkGain", slices.Concat(got.linkGain...), slices.Concat(want.linkGain...)},
	} {
		if len(arr.got) != len(arr.want) {
			t.Fatalf("%s: %s has %d entries, NewState %d", where, arr.name, len(arr.got), len(arr.want))
		}
		for i := range arr.want {
			eq(arr.name, i, arr.got[i], arr.want[i])
		}
	}
	if !slices.Equal(got.level, want.level) {
		t.Fatalf("%s: rate levels differ from NewState's", where)
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

// TestDeriveRederivesOtherLinkTables: a fork that installs its own link
// tables builds its states from them. A state built on the fork before
// the installs and refreshed sector by sector afterwards must equal the
// fork's NewState, while the source model, its state and its rows stay
// on the analytic budgets.
func TestDeriveRederivesOtherLinkTables(t *testing.T) {
	m := testModel(t)
	src := baseline(t, m)
	before := copyRows(src)
	fork := m.ForkUsers()
	moved := fork.NewState(src.Cfg.Clone())
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
	for b := range m.Net.Sectors {
		moved.RefreshSector(b)
	}
	want := fork.NewState(src.Cfg.Clone())
	sameRadio(t, "fork tables", moved, want)
	if want.linkGain[1][0] == src.linkGain[1][0] {
		t.Fatal("fork state reads the source's link row")
	}
	sameRows(t, "source", src, before)
	sameState(t, "source model", m.NewState(src.Cfg.Clone()), src)
}

// TestDeriveConcurrentOnSharedState: goroutines build states at random
// targets near one shared source's configuration, each on its own fork
// and filling the shared row cache, while another goroutine scores moves
// on the source — the simulator's window set-up beside a cached engine's
// scorer. Every state must equal the one a cold model builds alone, and
// the source must be left as it was; under -race this proves NewState
// and ForkUsers only read what they share.
func TestDeriveConcurrentOnSharedState(t *testing.T) {
	m := testModel(t)
	src := baseline(t, m)
	before := copyRows(src)
	u := utility.Performance
	moves := everyMove(m)
	scored := src.SpeculateBatch(moves, u, nil)
	cold := testModel(t)
	baseline(t, cold)
	const workers = 6
	targets := make([][]*config.Config, workers)
	wants := make([][]*State, workers)
	for w := range targets {
		rng := rand.New(rand.NewSource(int64(40 + w)))
		for i := 0; i < 4; i++ {
			cfg := randomTarget(rng, src.Cfg)
			targets[w] = append(targets[w], cfg)
			wants[w] = append(wants[w], cold.NewState(cfg.Clone()))
		}
	}
	var wg sync.WaitGroup
	for w := range targets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fork := m.ForkUsers()
			for i, cfg := range targets[w] {
				got := fork.NewState(cfg.Clone())
				if got.Model.LinkRows() != m.LinkRows() {
					t.Errorf("worker %d state %d: fork does not share the row cache", w, i)
					return
				}
				want := wants[w][i]
				for g := 0; g < m.Grid.NumCells(); g++ {
					if got.ServingSector(g) != want.ServingSector(g) || got.MaxRateBps(g) != want.MaxRateBps(g) {
						t.Errorf("worker %d state %d: grid %d differs from a cold model", w, i, g)
						return
					}
				}
				if gu, wu := got.Utility(u), want.Utility(u); gu != wu {
					t.Errorf("worker %d state %d: utility %v, cold model %v", w, i, gu, wu)
				}
			}
		}(w)
	}
	var rescored []BatchResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		rescored = src.SpeculateBatch(moves, u, nil)
	}()
	wg.Wait()
	sameResults(t, "scorer beside the builders", moves, rescored, scored)
	sameRows(t, "shared source", src, before)
}

// sectorRows is a deep copy of a state's link rows and sector powers.
type sectorRows struct {
	linkGain [][]float64
	powerMw  []float64
}

func copyRows(s *State) sectorRows {
	out := sectorRows{powerMw: slices.Clone(s.powerMw)}
	for _, row := range s.linkGain {
		out.linkGain = append(out.linkGain, slices.Clone(row))
	}
	return out
}

// sameRows fails unless s's link rows and sector powers are bit for bit
// the ones recorded in want.
func sameRows(t *testing.T, where string, s *State, want sectorRows) {
	t.Helper()
	for b, row := range want.linkGain {
		if len(s.linkGain[b]) != len(row) {
			t.Fatalf("%s: sector %d link row has %d entries, want %d", where, b, len(s.linkGain[b]), len(row))
		}
		for i, v := range row {
			if math.Float64bits(s.linkGain[b][i]) != math.Float64bits(v) {
				t.Fatalf("%s: linkGain[%d][%d] = %v, was %v", where, b, i, s.linkGain[b][i], v)
			}
		}
	}
	for b, v := range want.powerMw {
		if math.Float64bits(s.powerMw[b]) != math.Float64bits(v) {
			t.Fatalf("%s: powerMw[%d] = %v, was %v", where, b, s.powerMw[b], v)
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

// TestSharedRowsStayImmutable: a Clone, and states built by NewState on
// the source's model or on a ForkUsers fork, share the source's link
// rows, so every Apply shape on either side must leave the other side's
// rows and sector powers bit for bit as they were, and each side must
// still equal NewState of its own configuration on every array an Apply
// keeps bit-identical.
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
			"clone":     src.Clone(),
			"new-state": m.NewState(randomTarget(rng, src.Cfg)),
			"fork":      fork.NewState(randomTarget(rng, src.Cfg)),
		}
		names := []string{"clone", "new-state", "fork"}

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

// TestSharedRowsConcurrentDeriveRefresh: goroutines build states at one
// shared source's configuration on their own forks and price power
// moves against the rows they share with it, while other goroutines
// refresh and retilt clones of the same source. Under -race this proves
// a refresh installs a new row rather than writing into a shared one.
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
				d := fork.NewState(src.Cfg.Clone())
				d.SpeculateBatch([]config.Change{{Sector: rng.Intn(n), PowerDelta: 2}}, utility.Performance, nil)
				d.MustApply(config.Change{Sector: rng.Intn(n), PowerDelta: -1})
				want := fork.NewState(d.Cfg.Clone())
				if gu, wu := d.Utility(utility.Performance), want.Utility(utility.Performance); gu != wu {
					t.Errorf("builder %d pass %d: utility %v, NewState %v", w, i, gu, wu)
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
