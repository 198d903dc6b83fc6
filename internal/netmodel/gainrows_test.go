package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"magus/internal/config"
	"magus/internal/units"
	"magus/internal/utility"
)

// freshRow computes sector b's link-gain row at tilt index idx straight
// from entryLinkDB, bypassing the cache.
func freshRow(m *Model, b, idx int) []float64 {
	tilt := m.Net.Sectors[b].Tilts.Degrees(idx)
	row := make([]float64, len(m.core.sectorEntries[b]))
	for i, ref := range m.core.sectorEntries[b] {
		row[i] = units.DbmToMw(m.entryLinkDB(int(ref.Pos), tilt))
	}
	return row
}

func sameBits(t *testing.T, where string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", where, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, want %v", where, i, got[i], want[i])
		}
	}
}

// sameRow reports whether a and b are the same row, not merely equal.
func sameRow(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestGainRowsMatchFreshRows: every cached row is bit-identical to a
// freshly computed one, a second request returns the same row, and
// states at one tilt (fresh, retilted, built on a fork) share it.
func TestGainRowsMatchFreshRows(t *testing.T) {
	m := testModel(t)
	var entries, settings int64
	for b := range m.Net.Sectors {
		tt := m.Net.Sectors[b].Tilts
		entries += int64(len(m.core.sectorEntries[b]))
		settings = max(settings, int64(tt.NumSettings()))
		for idx := tt.MinIndex(); idx <= tt.MaxIndex(); idx++ {
			row := m.gainRow(b, idx)
			sameBits(t, fmt.Sprintf("sector %d tilt %d", b, idx), row, freshRow(m, b, idx))
			if !sameRow(row, m.gainRow(b, idx)) {
				t.Fatalf("sector %d tilt %d: second request built another row", b, idx)
			}
		}
	}
	if got, bound := m.LinkRowBytes(), entries*settings*8; got <= 0 || got > bound {
		t.Fatalf("LinkRowBytes = %d, want in (0, %d]", got, bound)
	}

	a := baseline(t, m)
	fresh := m.NewState(a.Cfg.Clone())
	b := 1
	moved := a.Clone()
	moved.MustApply(config.Change{Sector: b, TiltDelta: 1})
	forked := m.ForkUsers().NewState(moved.Cfg.Clone())
	for s := range m.Net.Sectors {
		if !sameRow(a.linkGain[s], fresh.linkGain[s]) {
			t.Fatalf("sector %d: two states at one tilt hold different rows", s)
		}
	}
	want := m.gainRow(b, moved.Cfg.TiltIndex(b))
	if !sameRow(moved.linkGain[b], want) || !sameRow(forked.linkGain[b], want) {
		t.Fatalf("sector %d: retilted and forked states do not share the cached row", b)
	}
}

// shiftedTable samples sector b's link budget at every tilt setting and
// lowers it by shiftDB, a stand-in for an operational matrix.
func shiftedTable(m *Model, b int, shiftDB float64) (settings []float64, rows [][]float64) {
	settings = tiltDegreesOf(m, b)
	rows = m.SampleLinkDB(b, settings)
	for _, row := range rows {
		for i := range row {
			row[i] -= shiftDB
		}
	}
	return settings, rows
}

func install(t *testing.T, m *Model, b int, shiftDB float64) {
	t.Helper()
	settings, rows := shiftedTable(m, b, shiftDB)
	if err := m.InstallLinkTable(b, settings, m.SectorCells(b), rows); err != nil {
		t.Fatal(err)
	}
}

// TestGainRowsInstallLinkTable checks every lineage against an oracle
// model that never cached a row before its installs.
func TestGainRowsInstallLinkTable(t *testing.T) {
	u := utility.Performance
	const b, b2, b3 = 0, 2, 4

	t.Run("install after caching", func(t *testing.T) {
		m := testModel(t)
		s := baseline(t, m)
		idx := s.Cfg.TiltIndex(b)
		// Cache the rows a retilt of b reads, then replace b's table.
		s.SpeculateBatch([]config.Change{{Sector: b, TiltDelta: 1}, {Sector: b, TiltDelta: -1}}, u, nil)
		install(t, m, b, 3)

		oracle := testModel(t)
		baseline(t, oracle)
		install(t, oracle, b, 3)
		for i := idx - 1; i <= idx+1; i++ {
			sameBits(t, fmt.Sprintf("tilt %d", i), m.gainRow(b, i), freshRow(oracle, b, i))
		}
		sameRadio(t, "NewState", m.NewState(s.Cfg.Clone()), oracle.NewState(s.Cfg.Clone()))
		refreshed := s.Clone()
		refreshed.RefreshSector(b)
		sameRadio(t, "RefreshSector", refreshed, oracle.NewState(s.Cfg.Clone()))

		fresh, want := m.NewState(s.Cfg.Clone()), oracle.NewState(s.Cfg.Clone())
		fresh.Utility(u)
		want.Utility(u)
		for _, d := range []int{1, -1} {
			mv := []config.Change{{Sector: b, TiltDelta: d}}
			got := fresh.SpeculateBatch(mv, u, nil)[0].Delta
			exp := want.SpeculateBatch(mv, u, nil)[0].Delta
			if math.Float64bits(got) != math.Float64bits(exp) {
				t.Fatalf("retilt %+d prices %v, oracle %v", d, got, exp)
			}
		}
	})

	t.Run("fork before first install", func(t *testing.T) {
		m := testModel(t)
		s := baseline(t, m)
		early := m.ForkUsers()
		analytic := append([]float64(nil), s.linkGain[b]...)
		install(t, m, b, 3)
		if early.LinkRows() == m.LinkRows() {
			t.Fatal("first install kept the row cache the earlier fork shares")
		}
		sameBits(t, "early fork NewState", early.NewState(s.Cfg.Clone()).linkGain[b], analytic)
		sameBits(t, "source state", s.linkGain[b], analytic)
	})

	t.Run("fork sharing tables", func(t *testing.T) {
		m := testModel(t)
		s := baseline(t, m)
		install(t, m, b, 3)
		late := m.ForkUsers()
		if late.LinkRows() != m.LinkRows() {
			t.Fatal("fork does not share the row cache")
		}
		m.NewState(s.Cfg.Clone()) // cache rows at the installed tables
		install(t, late, b2, 2)   // the fork installs; m must see it
		install(t, m, b3, 5)      // m installs; the fork must see it

		oracle := testModel(t)
		baseline(t, oracle)
		install(t, oracle, b, 3)
		install(t, oracle, b2, 2)
		install(t, oracle, b3, 5)
		for name, view := range map[string]*Model{"model": m, "fork": late} {
			want := oracle.NewState(s.Cfg.Clone())
			got := view.NewState(s.Cfg.Clone())
			sameRadio(t, name+" NewState", got, want)
		}
	})
}

// TestGainRowsConcurrentFill: goroutines speculate retilts on one
// shared state and build states at retilted configurations on their own
// forks while the rows are first built. Every goroutine must get the results
// a cold model computes alone.
func TestGainRowsConcurrentFill(t *testing.T) {
	u := utility.Performance
	type results struct {
		deltas    []float64
		utilities []float64
	}
	var moves []config.Change
	var targets []*config.Config
	run := func(src *State, view *Model) results {
		var r results
		for _, res := range src.SpeculateBatch(moves, u, nil) {
			r.deltas = append(r.deltas, res.Delta)
		}
		for _, cfg := range targets {
			r.utilities = append(r.utilities, view.NewState(cfg.Clone()).Utility(u))
		}
		return r
	}

	m := testModel(t)
	src := baseline(t, m)
	src.Utility(u)
	for b := range m.Net.Sectors {
		for _, d := range []int{-2, -1, 1, 2} {
			moves = append(moves, config.Change{Sector: b, TiltDelta: d})
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		cfg := src.Cfg.Clone()
		for j := 0; j < 8; j++ {
			if _, err := cfg.Apply(config.Change{Sector: rng.Intn(cfg.NumSectors()), TiltDelta: rng.Intn(5) - 2}); err != nil {
				t.Fatal(err)
			}
		}
		targets = append(targets, cfg)
	}

	const workers = 4
	got := make([]results, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run(src, m.ForkUsers())
		}(w)
	}
	wg.Wait()

	cold := testModel(t)
	ref := baseline(t, cold)
	ref.Utility(u)
	want := run(ref, cold)
	for w, r := range got {
		for i := range want.deltas {
			if math.Float64bits(r.deltas[i]) != math.Float64bits(want.deltas[i]) {
				t.Fatalf("worker %d: %v prices %v, cold model %v", w, moves[i], r.deltas[i], want.deltas[i])
			}
		}
		for i := range want.utilities {
			if math.Float64bits(r.utilities[i]) != math.Float64bits(want.utilities[i]) {
				t.Fatalf("worker %d: target %d utility %v, cold model %v", w, i, r.utilities[i], want.utilities[i])
			}
		}
	}
}
