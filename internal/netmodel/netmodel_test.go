package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"magus/internal/config"
	"magus/internal/geo"
	"magus/internal/propagation"
	"magus/internal/topology"
	"magus/internal/utility"
)

// testModel builds a small suburban model used across tests.
func testModel(t *testing.T) *Model {
	t.Helper()
	net := topology.MustGenerate(topology.GenConfig{
		Seed:   3,
		Class:  topology.Suburban,
		Bounds: geo.NewRectCentered(geo.Point{}, 6000, 6000),
	})
	spm := propagation.MustNewSPM(2.635e9, nil)
	return MustNewModel(net, spm, net.Bounds, Params{CellSizeM: 200})
}

// baseline returns a state at the default configuration with users
// assigned.
func baseline(t *testing.T, m *Model) *State {
	t.Helper()
	s := m.NewState(config.New(m.Net))
	s.AssignUsersUniform()
	return s
}

func TestModelConstruction(t *testing.T) {
	m := testModel(t)
	if m.Grid.NumCells() != 30*30 {
		t.Errorf("grid = %d cells, want 900", m.Grid.NumCells())
	}
	if m.NumContributors() == 0 {
		t.Fatal("no contributor entries built")
	}
	if m.NoiseMw() <= 0 {
		t.Error("noise floor must be positive")
	}
	if m.Params().CellSizeM != 200 {
		t.Error("params not retained")
	}
}

func TestNewModelErrors(t *testing.T) {
	net := topology.MustGenerate(topology.GenConfig{
		Seed: 1, Class: topology.Suburban,
		Bounds: geo.NewRectCentered(geo.Point{}, 3000, 3000),
	})
	spm := propagation.MustNewSPM(2.6e9, nil)
	if _, err := NewModel(net, spm, geo.Rect{}, Params{}); err == nil {
		t.Error("empty region should fail")
	}
	if _, err := NewModel(net, spm, net.Bounds, Params{BandwidthHz: 123}); err == nil {
		t.Error("bad bandwidth should fail")
	}
}

func TestStateInvariants(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	servedGrids := 0
	for g := 0; g < m.Grid.NumCells(); g++ {
		if s.totalMw[g] < s.bestMw[g]-1e-18 {
			t.Fatalf("grid %d: total %v < best %v", g, s.totalMw[g], s.bestMw[g])
		}
		if s.bestSec[g] >= 0 {
			servedGrids++
			// best must be the true argmax over entries.
			start, end := m.core.gridStart[g], m.core.gridStart[g+1]
			for pos := start; pos < end; pos++ {
				if s.entryMw(pos) > s.bestMw[g]+1e-18 {
					t.Fatalf("grid %d: entry %d has rp %v above recorded best %v",
						g, pos, s.entryMw(pos), s.bestMw[g])
				}
			}
		} else if s.level[g] != 0 {
			t.Fatalf("grid %d: no server but rate level %d", g, s.level[g])
		}
	}
	if servedGrids == 0 {
		t.Fatal("no grids served at default configuration")
	}
	// Load conservation: sum of loads equals sum of UE weights on served
	// grids.
	loadSum := 0.0
	for b := range m.Net.Sectors {
		loadSum += s.Load(b)
	}
	ueOnServed := 0.0
	for g := 0; g < m.Grid.NumCells(); g++ {
		if s.bestSec[g] >= 0 {
			ueOnServed += m.UE(g)
		}
	}
	if math.Abs(loadSum-ueOnServed) > 1e-6 {
		t.Errorf("load sum %v != UE on served grids %v", loadSum, ueOnServed)
	}
}

func TestAssignUsersUniform(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	if m.TotalUE() <= 0 {
		t.Fatal("no UEs assigned")
	}
	// Each serving sector should carry close to the nominal per-sector
	// population (exactly, for sectors whose grids all have rmax > 0).
	perSector := m.Net.Params.UEsPerSector
	for b := range m.Net.Sectors {
		if s.ServedGrids(b) == 0 {
			if s.Load(b) != 0 {
				t.Fatalf("sector %d serves no grids but has load %v", b, s.Load(b))
			}
			continue
		}
		if s.Load(b) > perSector*1.01 {
			t.Fatalf("sector %d load %v exceeds nominal %v", b, s.Load(b), perSector)
		}
	}
	// Utility must be positive with users in place.
	if u := s.Utility(utility.Performance); u <= 0 {
		t.Errorf("baseline performance utility = %v, want > 0", u)
	}
	if c := s.Utility(utility.Coverage); math.Abs(c-s.ServedUE()) > 1e-6 {
		t.Errorf("coverage utility %v != served UE %v", c, s.ServedUE())
	}
}

// TestIncrementalMatchesFull is the critical consistency property: a
// sequence of incremental Apply calls must leave the state identical to
// a from-scratch evaluation of the final configuration.
func TestIncrementalMatchesFull(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)

	changes := []config.Change{
		{Sector: 0, TurnOff: true},
		{Sector: 1, PowerDelta: 3},
		{Sector: 2, TiltDelta: -4},
		{Sector: 3, PowerDelta: -5},
		{Sector: 1, PowerDelta: 2},
		{Sector: 4, TurnOff: true},
		{Sector: 2, TiltDelta: 2},
		{Sector: 4, TurnOn: true},
		{Sector: 5, PowerDelta: 100}, // clamps to max
	}
	for _, ch := range changes {
		if _, err := s.Apply(ch); err != nil {
			t.Fatalf("Apply(%v): %v", ch, err)
		}
	}

	fresh := m.NewState(s.Cfg.Clone())
	for g := 0; g < m.Grid.NumCells(); g++ {
		if s.bestSec[g] != fresh.bestSec[g] {
			t.Fatalf("grid %d: serving %d (incremental) vs %d (full)",
				g, s.bestSec[g], fresh.bestSec[g])
		}
		if relDiff(s.totalMw[g], fresh.totalMw[g]) > 1e-9 {
			t.Fatalf("grid %d: total %v vs %v", g, s.totalMw[g], fresh.totalMw[g])
		}
		if relDiff(s.bestMw[g], fresh.bestMw[g]) > 1e-9 {
			t.Fatalf("grid %d: best %v vs %v", g, s.bestMw[g], fresh.bestMw[g])
		}
		if s.level[g] != fresh.level[g] {
			t.Fatalf("grid %d: rate level %d vs %d", g, s.level[g], fresh.level[g])
		}
	}
	for b := range m.Net.Sectors {
		if math.Abs(s.load[b]-fresh.load[b]) > 1e-6 {
			t.Fatalf("sector %d: load %v vs %v", b, s.load[b], fresh.load[b])
		}
		if s.served[b] != fresh.served[b] {
			t.Fatalf("sector %d: served %d vs %d", b, s.served[b], fresh.served[b])
		}
	}
}

func TestApplyUndoRestores(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	before := s.Clone()
	u0 := s.Utility(utility.Performance)

	applied := s.MustApply(config.Change{Sector: 2, PowerDelta: 3, TiltDelta: -2})
	if s.Utility(utility.Performance) == u0 {
		t.Log("warning: change had no utility effect (acceptable but unusual)")
	}
	s.MustApply(applied.Inverse())

	if !s.Cfg.Equal(before.Cfg) {
		t.Fatal("config not restored after undo")
	}
	if math.Abs(s.Utility(utility.Performance)-u0) > 1e-9 {
		t.Fatalf("utility drifted after undo: %v vs %v", s.Utility(utility.Performance), u0)
	}
	for g := 0; g < m.Grid.NumCells(); g++ {
		if s.bestSec[g] != before.bestSec[g] {
			t.Fatalf("grid %d serving changed after undo", g)
		}
	}
}

func TestSectorOffDegrades(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	u0 := s.Utility(utility.Performance)
	served0 := s.ServedUE()

	central := m.Net.CentralSite()
	target := m.Net.Sites[central].Sectors[0]
	loadBefore := s.Load(target)
	if loadBefore <= 0 {
		t.Skip("central sector serves no UEs in this layout")
	}
	s.MustApply(config.Change{Sector: target, TurnOff: true})

	if u := s.Utility(utility.Performance); u >= u0 {
		t.Errorf("utility should drop when a loaded sector goes off: %v -> %v", u0, u)
	}
	if s.Load(target) != 0 || s.ServedGrids(target) != 0 {
		t.Errorf("off sector still serving: load=%v grids=%d", s.Load(target), s.ServedGrids(target))
	}
	if s.ServedUE() > served0 {
		t.Error("served UE count should not grow when a sector goes off")
	}
	// Degraded grids must be non-empty and weighted.
	base := m.NewState(config.New(m.Net))
	base.RecomputeLoads()
	degraded := s.DegradedGrids(base)
	if len(degraded) == 0 {
		t.Error("no degraded grids after taking a loaded sector off")
	}
}

func TestPowerUpImprovesServedGrid(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	// Find a grid served by sector with headroom.
	for g := 0; g < m.Grid.NumCells(); g++ {
		b := s.ServingSector(g)
		if b < 0 || s.Cfg.AtMaxPower(b) {
			continue
		}
		sinr0 := s.SINRdB(g)
		applied := s.MustApply(config.Change{Sector: b, PowerDelta: 2})
		if s.SINRdB(g) < sinr0 {
			t.Fatalf("grid %d SINR dropped after serving sector power-up: %v -> %v",
				g, sinr0, s.SINRdB(g))
		}
		s.MustApply(applied.Inverse())
		return
	}
	t.Skip("no suitable grid found")
}

func TestSINRImprovers(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	base := s.Clone()

	central := m.Net.CentralSite()
	targets := m.Net.Sites[central].Sectors
	for _, tg := range targets {
		s.MustApply(config.Change{Sector: tg, TurnOff: true})
	}
	degraded := s.DegradedGrids(base)
	if len(degraded) == 0 {
		t.Skip("no degradation in this layout")
	}
	neighbors := m.Net.NeighborSectors(targets, 4000)
	improvers := s.SINRImprovers(degraded, neighbors, 1)
	// Improvers must be a subset of candidates, on-air, not maxed.
	candSet := map[int]bool{}
	for _, b := range neighbors {
		candSet[b] = true
	}
	for _, b := range improvers {
		if !candSet[b] {
			t.Fatalf("improver %d not a candidate", b)
		}
		if s.Cfg.Off(b) || s.Cfg.AtMaxPower(b) {
			t.Fatalf("improver %d off or maxed", b)
		}
	}
	// Degenerate inputs.
	if got := s.SINRImprovers(nil, neighbors, 1); got != nil {
		t.Error("no affected grids should yield no improvers")
	}
	if got := s.SINRImprovers(degraded, neighbors, 0); got != nil {
		t.Error("zero delta should yield no improvers")
	}
}

// TestSINRImproversScratchReuse: repeated calls (including overlapping
// affected sets) must agree with a reference map-based membership test.
func TestSINRImproversScratchReuse(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	base := s.Clone()
	central := m.Net.CentralSite()
	targets := m.Net.Sites[central].Sectors
	for _, tg := range targets {
		s.MustApply(config.Change{Sector: tg, TurnOff: true})
	}
	degraded := s.DegradedGrids(base)
	if len(degraded) == 0 {
		t.Skip("no degradation in this layout")
	}
	neighbors := m.Net.NeighborSectors(targets, 4000)

	first := s.SINRImprovers(degraded, neighbors, 1)
	// A second identical call must return the same set (scratch cleared).
	second := s.SINRImprovers(degraded, neighbors, 1)
	if len(first) != len(second) {
		t.Fatalf("scratch not cleared: %v then %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("scratch not cleared: %v then %v", first, second)
		}
	}
	// A disjoint affected set must not see the previous marks.
	other := []int{}
	seen := map[int]bool{}
	for _, g := range degraded {
		seen[g] = true
	}
	for g := 0; g < m.Grid.NumCells() && len(other) < 5; g++ {
		if !seen[g] && m.UE(g) != 0 {
			other = append(other, g)
		}
	}
	if len(other) > 0 {
		got := s.SINRImprovers(other, neighbors, 1)
		for _, b := range got {
			found := false
			for _, ref := range m.core.sectorEntries[b] {
				for _, g := range other {
					if int(ref.Grid) == g {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("improver %d has no entry on the affected grids; stale scratch marks", b)
			}
		}
	}
}

func TestHandoverUEs(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	before := s.Clone()
	if got := HandoverUEs(before, s); got != 0 {
		t.Errorf("identical states should have 0 handovers, got %v", got)
	}
	central := m.Net.CentralSite()
	target := m.Net.Sites[central].Sectors[0]
	loadBefore := s.Load(target)
	s.MustApply(config.Change{Sector: target, TurnOff: true})
	ho := HandoverUEs(before, s)
	if loadBefore > 0 && ho <= 0 {
		t.Errorf("handover UEs = %v after turning off loaded sector (load was %v)", ho, loadBefore)
	}
	// Handovers at least cover the UEs the target was serving that are
	// still in coverage elsewhere; they can exceed it via interference
	// shifts, but can never exceed the total population.
	if ho > m.TotalUE() {
		t.Errorf("handover UEs %v exceeds population %v", ho, m.TotalUE())
	}
}

func TestInterferingSectorCount(t *testing.T) {
	m := testModel(t)
	inner := geo.NewRectCentered(geo.Point{}, 2000, 2000)
	n := m.InterferingSectorCount(inner, 6)
	if n <= 0 {
		t.Fatal("no interfering sectors found")
	}
	if n > m.Net.NumSectors() {
		t.Fatalf("interferer count %d exceeds sector count %d", n, m.Net.NumSectors())
	}
	// A larger margin can only admit more sectors.
	if m.InterferingSectorCount(inner, 20) < n {
		t.Error("larger margin should admit at least as many interferers")
	}
}

func TestGridsIn(t *testing.T) {
	m := testModel(t)
	inner := geo.NewRectCentered(geo.Point{}, 2000, 2000)
	grids := m.GridsIn(nil, inner)
	if len(grids) != 100 { // 2000/200 = 10 per side
		t.Errorf("GridsIn returned %d cells, want 100", len(grids))
	}
	for _, g := range grids {
		if !inner.Contains(m.Grid.CellCenterIdx(g)) {
			t.Fatalf("grid %d outside region", g)
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

// TestCoverageGrids checks the per-sector coverage sets against the
// reach criterion InterferingSectorCount applies: a sector counts as an
// interferer of a region exactly when one of its coverage grids falls
// inside it, margins widen coverage monotonically, and indices come out
// strictly ascending (the waveplan conflict graph intersects them by
// linear merge).
func TestCoverageGrids(t *testing.T) {
	m := testModel(t)
	covered := 0
	for b := range m.Net.Sectors {
		grids := m.CoverageGrids(nil, b, 6)
		covered += len(grids)
		for i := 1; i < len(grids); i++ {
			if grids[i-1] >= grids[i] {
				t.Fatalf("sector %d coverage not strictly ascending: %v", b, grids)
			}
		}
		if wide := m.CoverageGrids(nil, b, 20); len(wide) < len(grids) {
			t.Errorf("sector %d: margin 20 covers %d grids, margin 6 covers %d", b, len(wide), len(grids))
		}
	}
	if covered == 0 {
		t.Fatal("no sector covers any grid")
	}

	// Cross-check against InterferingSectorCount on an inner region: the
	// count must equal the number of sectors with at least one coverage
	// grid whose center lies inside the region.
	inner := geo.NewRectCentered(geo.Point{}, 2000, 2000)
	const margin = 6.0
	want := 0
	for b := range m.Net.Sectors {
		for _, g := range m.CoverageGrids(nil, b, margin) {
			if inner.Contains(m.Grid.CellCenterIdx(g)) {
				want++
				break
			}
		}
	}
	if got := m.InterferingSectorCount(inner, margin); got != want {
		t.Errorf("InterferingSectorCount = %d, coverage sets say %d", got, want)
	}

	// dst is appended to, not clobbered.
	prefix := []int{-1}
	out := m.CoverageGrids(prefix, 0, 6)
	if len(out) < 1 || out[0] != -1 {
		t.Error("CoverageGrids does not append to dst")
	}
}

// checkServedIndex asserts the served-grid index invariant: servedList[b]
// holds exactly the grids with bestSec == b, each once, and servedPos
// points every served grid back at its slot.
func checkServedIndex(t *testing.T, s *State, where string) {
	t.Helper()
	if len(s.servedList) != s.Model.Net.NumSectors() {
		t.Fatalf("%s: %d served lists for %d sectors", where, len(s.servedList), s.Model.Net.NumSectors())
	}
	listed := 0
	for b, list := range s.servedList {
		for p, g := range list {
			if s.bestSec[g] != int32(b) {
				t.Fatalf("%s: grid %d listed under sector %d but served by %d", where, g, b, s.bestSec[g])
			}
			if s.servedPos[g] != int32(p) {
				t.Fatalf("%s: grid %d at slot %d of sector %d, servedPos says %d", where, g, p, b, s.servedPos[g])
			}
		}
		listed += len(list)
	}
	served := 0
	for _, b := range s.bestSec {
		if b >= 0 {
			served++
		}
	}
	if listed != served {
		t.Fatalf("%s: index lists %d grids, %d are served", where, listed, served)
	}
}

// TestServedIndexMatchesServing drives random move sequences (including
// TurnOff/TurnOn) and the load-rebuild entry points, checking the
// served-grid index after every step, then diverges a clone from its
// parent: each index must stay exact, which also proves the clone's
// flat copy shares no backing storage with the parent's lists.
func TestServedIndexMatchesServing(t *testing.T) {
	m := testModel(t)
	s := baseline(t, m)
	checkServedIndex(t, s, "baseline")
	rng := rand.New(rand.NewSource(5))
	n := m.Net.NumSectors()
	for i := 0; i < 200; i++ {
		ch := randomChange(rng, n)
		if rng.Intn(4) == 0 {
			ch = config.Change{Sector: rng.Intn(n), TurnOn: true}
		}
		s.MustApply(ch)
		checkServedIndex(t, s, fmt.Sprintf("move %d (%v)", i, ch))
	}
	s.RecomputeLoads()
	checkServedIndex(t, s, "RecomputeLoads")
	s.AssignUsersUniform()
	checkServedIndex(t, s, "AssignUsersUniform")
	grids := servedGridsOf(s, 3)
	m.ScaleUsersAt(grids, 1.5)
	s.NoteUsersScaledAt(grids, 1.5)
	checkServedIndex(t, s, "NoteUsersScaledAt")

	c := s.Clone()
	checkServedIndex(t, c, "clone")
	for i := 0; i < 100; i++ {
		s.MustApply(randomBatchChange(rng, n))
		c.MustApply(randomBatchChange(rng, n))
		checkServedIndex(t, s, fmt.Sprintf("parent after diverging move %d", i))
		checkServedIndex(t, c, fmt.Sprintf("clone after diverging move %d", i))
	}
}
