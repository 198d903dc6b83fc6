package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	var entries, settings, spans int64
	for b := range m.Net.Sectors {
		tt := m.Net.Sectors[b].Tilts
		entries += int64(len(m.core.sectorEntries[b]))
		settings = max(settings, int64(tt.NumSettings()))
		for idx := tt.MinIndex(); idx <= tt.MaxIndex(); idx++ {
			row := m.gainRow(b, idx)
			sameBits(t, fmt.Sprintf("sector %d tilt %d", b, idx), row.gain, freshRow(m, b, idx))
			if m.gainRow(b, idx) != row {
				t.Fatalf("sector %d tilt %d: second request built another row", b, idx)
			}
			row.bandOrder()
			spans += int64(exponentSpan(row.gain))
		}
	}
	// 8 B per entry for the gains, and for a row with a band order 4 B
	// per nonzero entry and 4 B per binary exponent its gains span.
	if got, bound := m.LinkRowBytes(), entries*settings*12+spans*4; got <= 0 || got > bound {
		t.Fatalf("LinkRowBytes = %d, want in (0, %d]", got, bound)
	}

	a := baseline(t, m)
	fresh := m.NewState(a.Cfg.Clone())
	b := 1
	moved := a.Clone()
	moved.MustApply(config.Change{Sector: b, TiltDelta: 1})
	forked := m.ForkUsers().NewState(moved.Cfg.Clone())
	for s := range m.Net.Sectors {
		if !sameRow(a.rows[s].gain, fresh.rows[s].gain) {
			t.Fatalf("sector %d: two states at one tilt hold different rows", s)
		}
	}
	want := m.gainRow(b, moved.Cfg.TiltIndex(b)).gain
	if !sameRow(moved.rows[b].gain, want) || !sameRow(forked.rows[b].gain, want) {
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
			sameBits(t, fmt.Sprintf("tilt %d", i), m.gainRow(b, i).gain, freshRow(oracle, b, i))
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
		analytic := append([]float64(nil), s.rows[b].gain...)
		install(t, m, b, 3)
		if early.LinkRows() == m.LinkRows() {
			t.Fatal("first install kept the row cache the earlier fork shares")
		}
		sameBits(t, "early fork NewState", early.NewState(s.Cfg.Clone()).rows[b].gain, analytic)
		sameBits(t, "source state", s.rows[b].gain, analytic)
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

// exponentSpan returns one more than the number of binary exponents
// from the smallest to the largest nonzero gain of a row, 1 when it has
// none: the length of the row's band starts.
func exponentSpan(gain []float64) int {
	lo, hi := math.MaxInt, -1
	for _, v := range gain {
		if v != 0 {
			e := int(math.Float64bits(v)>>52) & 0x7ff
			lo, hi = min(lo, e), max(hi, e)
		}
	}
	if hi < 0 {
		return 1
	}
	return hi - lo + 2
}

// checkBands fails unless bands is r's band order: a permutation of
// r's nonzero entries, grouped by descending exponent with each group in
// ascending index order, and start marking every group's first entry.
func checkBands(t *testing.T, where string, gain []float64, bands *gainBands) {
	t.Helper()
	var nonzero []int32
	for i, v := range gain {
		if v != 0 {
			nonzero = append(nonzero, int32(i))
		}
	}
	sorted := slices.Clone(bands.order)
	slices.Sort(sorted)
	if !slices.Equal(sorted, nonzero) {
		t.Fatalf("%s: band order %v is not a permutation of the nonzero entries %v", where, bands.order, nonzero)
	}
	if n := len(bands.start); n != exponentSpan(gain) || bands.start[0] != 0 || int(bands.start[n-1]) != len(bands.order) {
		t.Fatalf("%s: band starts %v do not span the %d entries", where, bands.start, len(bands.order))
	}
	for k := 0; k+1 < len(bands.start); k++ {
		group := bands.order[bands.start[k]:bands.start[k+1]]
		for j, i := range group {
			if e := gainExp(gain[i]); e != bands.hi-k {
				t.Fatalf("%s: entry %d (gain %v, exponent %d) sits in the group of exponent %d", where, i, gain[i], e, bands.hi-k)
			}
			if j > 0 && group[j-1] >= i {
				t.Fatalf("%s: group of exponent %d is not in ascending index order: %v", where, bands.hi-k, group)
			}
		}
	}
}

// bandRows returns hand-made rows with zeros, repeated values, exact
// powers of two and subnormal gains, and the test model's rows: with
// all, one per sector and tilt setting, otherwise those of two sectors
// at their lowest tilt.
func bandRows(t *testing.T, all bool) map[string][]float64 {
	t.Helper()
	m := testModel(t)
	rows := map[string][]float64{
		"empty":     {},
		"all zero":  {0, 0, 0},
		"one":       {0.5},
		"subnormal": {math.SmallestNonzeroFloat64, 0, 1e-310, 3e-320, math.Float64frombits(1<<52 - 1)},
		"mixed": {1e-12, 0, 0.25, 0.5, 0.5, 1, 2e-13, math.Nextafter(0.5, 0), math.Nextafter(0.25, 1),
			1e-300, 4e-320, 0, 1e-12, 3, 0.75, math.MaxFloat64, 1e-12},
	}
	for b := range m.Net.Sectors {
		tt := m.Net.Sectors[b].Tilts
		for idx := tt.MinIndex(); idx <= tt.MaxIndex(); idx++ {
			if all || b < 2 && idx == tt.MinIndex() {
				rows[fmt.Sprintf("sector %d tilt %d", b, idx)] = m.gainRow(b, idx).gain
			}
		}
	}
	return rows
}

// TestGainRowsBandOrder: a row's band order is a permutation of its
// nonzero entries, grouped by descending binary exponent with ascending
// indexes inside a group.
func TestGainRowsBandOrder(t *testing.T) {
	for name, gain := range bandRows(t, true) {
		row := &linkRow{gain: gain}
		bands := row.bandOrder()
		checkBands(t, name, gain, bands)
		if row.bandOrder() != bands {
			t.Fatalf("%s: second use built another band order", name)
		}
	}
}

// TestGainRowsBandQuery: strongMarks marks exactly {i : gain[i] > t} for
// t at every gain of the row and at every band edge (the powers of two
// bounding each exponent), one ulp either side of each, at ±0, +Inf and
// through the subnormal range; a NaN or negative t marks every nonzero
// entry.
func TestGainRowsBandQuery(t *testing.T) {
	for name, gain := range bandRows(t, false) {
		row := &linkRow{gain: gain}
		thresholds := []float64{0, math.Copysign(0, -1), math.Inf(1), math.MaxFloat64,
			math.SmallestNonzeroFloat64, 2e-320, 1e-310, math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 52)}
		for _, v := range gain {
			edge := math.Float64frombits(math.Float64bits(v) &^ (1<<52 - 1))
			for _, x := range []float64{v, edge, 2 * edge} {
				thresholds = append(thresholds, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
			}
		}
		n := (len(gain) + 63) / 64
		for _, th := range append(thresholds, math.NaN(), -1, math.Inf(-1)) {
			marks := make([]uint64, n)
			row.strongMarks(th, marks)
			for i, v := range gain {
				want := v != 0 && !(v <= th)
				if got := marks[i>>6]&(1<<(i&63)) != 0; got != want {
					t.Fatalf("%s: t = %v (%#x): entry %d (gain %v) marked %v, want %v",
						name, th, math.Float64bits(th), i, v, got, want)
				}
			}
		}
	}
}

// TestGainRowsConcurrentBandOrder: goroutines first-use one row's band
// order at once under -race; all get the one published order.
func TestGainRowsConcurrentBandOrder(t *testing.T) {
	m := testModel(t)
	row := m.gainRow(0, m.Net.Sectors[0].Tilts.MinIndex())
	const workers = 6
	got := make([]*gainBands, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			marks := make([]uint64, (len(row.gain)+63)/64)
			row.strongMarks(1e-12, marks)
			got[w] = row.bandOrder()
		}(w)
	}
	close(start)
	wg.Wait()
	for w, bands := range got {
		if bands != got[0] {
			t.Fatalf("worker %d holds a band order that was not published", w)
		}
	}
	checkBands(t, "concurrent", row.gain, got[0])
}
