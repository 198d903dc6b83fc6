package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"magus/internal/config"
	"magus/internal/geo"
	"magus/internal/propagation"
	"magus/internal/topology"
	"magus/internal/utility"
)

// classModel builds a market of the given class at the cell size the
// daemon's area specs use for it.
func classModel(t *testing.T, class topology.AreaClass, seed int64) *Model {
	t.Helper()
	size := map[topology.AreaClass]struct{ span, cell float64 }{
		topology.Rural:    {24000, 300},
		topology.Suburban: {10800, 200},
		topology.Urban:    {5400, 100},
	}[class]
	region := geo.NewRectCentered(geo.Point{}, size.span, size.span)
	net := topology.MustGenerate(topology.GenConfig{Seed: seed, Class: class, Bounds: region})
	return MustNewModel(net, propagation.MustNewSPM(2.635e9, nil), region, Params{CellSizeM: size.cell})
}

// randomConfig returns a configuration with about one sector in five
// off-air and the rest at random powers and tilts.
func randomConfig(rng *rand.Rand, net *topology.Network) *config.Config {
	cfg := config.New(net)
	for b := 0; b < cfg.NumSectors(); b++ {
		ch := config.Change{Sector: b, PowerDelta: float64(rng.Intn(13) - 6), TiltDelta: rng.Intn(5) - 2}
		if rng.Intn(5) == 0 {
			ch = config.Change{Sector: b, TurnOff: true}
		}
		if _, err := cfg.Apply(ch); err != nil {
			panic(err)
		}
	}
	return cfg
}

// sameFreshState fails unless got and want agree bit for bit on every
// array a fresh evaluation fills: totals, serving sectors and their
// powers, rate levels, loads, served counts, the served-grid
// lists in order and each grid's slot in its list.
func sameFreshState(t *testing.T, where string, got, want *State) {
	t.Helper()
	for _, arr := range []struct {
		name      string
		got, want []float64
	}{
		{"totalMw", got.totalMw, want.totalMw},
		{"bestMw", got.bestMw, want.bestMw},
		{"load", got.load, want.load},
	} {
		if len(arr.got) != len(arr.want) {
			t.Fatalf("%s: %s has %d entries, grid scan %d", where, arr.name, len(arr.got), len(arr.want))
		}
		for i := range arr.want {
			if math.Float64bits(arr.got[i]) != math.Float64bits(arr.want[i]) {
				t.Fatalf("%s: %s[%d] = %v, grid scan %v", where, arr.name, i, arr.got[i], arr.want[i])
			}
		}
	}
	if !slices.Equal(got.level, want.level) {
		t.Fatalf("%s: level differs from the grid scan", where)
	}
	for _, arr := range []struct {
		name      string
		got, want []int32
	}{
		{"bestSec", got.bestSec, want.bestSec},
		{"served", got.served, want.served},
		{"servedPos", got.servedPos, want.servedPos},
	} {
		if !slices.Equal(arr.got, arr.want) {
			t.Fatalf("%s: %s differs from the grid scan", where, arr.name)
		}
	}
	if len(got.servedList) != len(want.servedList) {
		t.Fatalf("%s: %d served lists, grid scan %d", where, len(got.servedList), len(want.servedList))
	}
	for b := range want.servedList {
		if !slices.Equal(got.servedList[b], want.servedList[b]) {
			t.Fatalf("%s: sector %d served list %v, grid scan %v", where, b, got.servedList[b], want.servedList[b])
		}
	}
	if got.radioGen != want.radioGen {
		t.Fatalf("%s: radioGen %d, grid scan %d", where, got.radioGen, want.radioGen)
	}
	checkServedIndex(t, got, where)
}

// TestNewStateMatchesGridScan pins NewState's sector-major build to the
// grid-major scan it replaced, bit for bit: every class and several
// seeds, random off-air sectors, powers and tilts, a model with
// tabulated link budgets, and a ForkUsers fork with its own users. Each
// built market's arrays must also pass NewCore's ascending-sector
// check.
func TestNewStateMatchesGridScan(t *testing.T) {
	seeds := []int64{1, 7, 1000}
	if testing.Short() {
		seeds = seeds[:1]
	}
	check := func(t *testing.T, where string, m *Model, cfg *config.Config) {
		t.Helper()
		sameFreshState(t, where, m.NewState(cfg.Clone()), m.newStateGridScan(cfg.Clone()))
	}
	for _, class := range []topology.AreaClass{topology.Rural, topology.Suburban, topology.Urban} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%v/seed%d", class, seed), func(t *testing.T) {
				m := classModel(t, class, seed)
				// The build writes each cell's sectors in the order the
				// sector-major pass relies on.
				sector, baseDB, elev, gridStart := m.Contributors()
				if _, err := NewCore(m.Grid, m.Net.NumSectors(), sector, baseDB, elev, gridStart); err != nil {
					t.Fatalf("built arrays rejected: %v", err)
				}
				baseline(t, m)
				check(t, "default", m, config.New(m.Net))
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 4; i++ {
					check(t, fmt.Sprintf("random %d", i), m, randomConfig(rng, m.Net))
				}

				fork := m.ForkUsers()
				fork.ScaleUsersAt(fork.SectorCells(0), 3)
				check(t, "fork", fork, randomConfig(rng, m.Net))

				tab := classModel(t, class, seed)
				baseline(t, tab)
				for i, b := range []int{0, 3, 7} {
					install(t, tab, b, float64(2*i-1))
				}
				check(t, "tabulated", tab, config.New(tab.Net))
				check(t, "tabulated random", tab, randomConfig(rng, tab.Net))
			})
		}
	}
}

// TestNewCoreRejectsUnsortedCells: a cell whose sectors are not
// strictly ascending is rejected, as is a cell listing one sector
// twice; the unchanged arrays are accepted.
func TestNewCoreRejectsUnsortedCells(t *testing.T) {
	m := testModel(t)
	sector, baseDB, elev, gridStart := m.Contributors()
	if _, err := NewCore(m.Grid, m.Net.NumSectors(), sector, baseDB, elev, gridStart); err != nil {
		t.Fatalf("built arrays rejected: %v", err)
	}
	g := 0
	for gridStart[g+1]-gridStart[g] < 2 {
		g++
	}
	pos := gridStart[g]
	for name, edit := range map[string]func(s []int32){
		"swapped":   func(s []int32) { s[pos], s[pos+1] = s[pos+1], s[pos] },
		"duplicate": func(s []int32) { s[pos+1] = s[pos] },
	} {
		bad := slices.Clone(sector)
		edit(bad)
		_, err := NewCore(m.Grid, m.Net.NumSectors(), bad, baseDB, elev, gridStart)
		if err == nil || !strings.Contains(err.Error(), "ascending") {
			t.Errorf("%s: cell %d accepted out of order (err %v)", name, g, err)
		}
	}
}

// TestCloneOnMatchesNewState: a copy of a fresh state onto a ForkUsers
// fork equals the state NewState builds on the fork from the same
// configuration, bit for bit, utility included. The copy reads the
// fork's users, not its source's, and a model with another core is
// refused.
func TestCloneOnMatchesNewState(t *testing.T) {
	m := testModel(t)
	baseline(t, m)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3; i++ {
		cfg := randomConfig(rng, m.Net)
		base := m.NewState(cfg.Clone())
		base.Utility(utility.Performance)
		fork := m.ForkUsers()
		got, want := base.CloneOn(fork), fork.NewState(cfg.Clone())
		where := fmt.Sprintf("config %d", i)
		sameFreshState(t, where, got, want)
		if got.Model != fork {
			t.Fatalf("%s: copy is not on the fork", where)
		}
		if u, w := got.Utility(utility.Performance), want.Utility(utility.Performance); math.Float64bits(u) != math.Float64bits(w) {
			t.Fatalf("%s: utility %v, fresh state %v", where, u, w)
		}

		fork.ScaleUsersAt(fork.SectorCells(0), 3)
		got.RecomputeLoads()
		want.RecomputeLoads()
		sameFreshState(t, where+" after a surge", got, want)
		if fresh := m.NewState(cfg.Clone()); !slices.Equal(base.load, fresh.load) {
			t.Fatalf("%s: a surge on the fork moved the source's loads", where)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("CloneOn onto a model with another core did not panic")
		}
	}()
	baseline(t, m).CloneOn(testModel(t))
}
