package core

import (
	"math"
	"testing"

	"magus/internal/feedback"
	"magus/internal/migrate"
	"magus/internal/sanitize"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(SetupConfig{
		Seed:          3,
		Class:         topology.Suburban,
		RegionSpanM:   6000,
		CellSizeM:     200,
		EqualizeSteps: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineDefaults(t *testing.T) {
	e := testEngine(t)
	if e.Net == nil || e.Model == nil || e.Before == nil {
		t.Fatal("engine missing components")
	}
	if e.Model.TotalUE() <= 0 {
		t.Error("no users assigned")
	}
	ta := e.TuningArea()
	if ta.Width() != 2000 || ta.Height() != 2000 {
		t.Errorf("tuning area %vx%v, want RegionSpan/3 = 2000", ta.Width(), ta.Height())
	}
	if e.NeighborRadius() != 1.6*e.Net.Params.InterSiteDistanceM {
		t.Errorf("neighbor radius = %v, want 1.6 x ISD", e.NeighborRadius())
	}
}

func TestNewEngineWithTerrain(t *testing.T) {
	e, err := NewEngine(SetupConfig{
		Seed:        5,
		Class:       topology.Suburban,
		RegionSpanM: 4000,
		CellSizeM:   200,
		WithTerrain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Terrain == nil {
		t.Error("terrain requested but absent")
	}
}

func TestMethodNames(t *testing.T) {
	names := map[Method]string{
		PowerOnly: "power-tuning", TiltOnly: "tilt-tuning",
		Joint: "joint", NaiveBaseline: "naive",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if Method(9).String() == "" {
		t.Error("unknown method should still produce a name")
	}
}

func TestMitigateScenarioA(t *testing.T) {
	e := testEngine(t)
	plan, err := e.Mitigate(upgrade.SingleSector, PowerOnly, utility.Performance)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Targets) != 1 {
		t.Fatalf("scenario (a) targets = %d, want 1", len(plan.Targets))
	}
	if len(plan.Neighbors) == 0 {
		t.Fatal("empty neighbor set")
	}
	// The fundamental ordering: f(C_before) >= f(C_after) >= f(C_upgrade).
	if plan.UtilityUpgrade > plan.UtilityBefore {
		t.Errorf("upgrade utility %v above before %v", plan.UtilityUpgrade, plan.UtilityBefore)
	}
	if plan.UtilityAfter < plan.UtilityUpgrade-1e-9 {
		t.Errorf("after utility %v below upgrade %v", plan.UtilityAfter, plan.UtilityUpgrade)
	}
	rr := plan.RecoveryRatio()
	if rr < 0 || rr > 1+1e-9 {
		t.Errorf("recovery ratio = %v outside [0, 1]", rr)
	}
	// The target must be off in both the upgrade and after states.
	if !plan.Upgrade.Cfg.Off(plan.Targets[0]) || !plan.After.Cfg.Off(plan.Targets[0]) {
		t.Error("target not off in upgrade/after states")
	}
}

func TestMitigateAllScenariosAndMethods(t *testing.T) {
	e := testEngine(t)
	for _, sc := range upgrade.AllScenarios {
		for _, m := range []Method{PowerOnly, TiltOnly, Joint, NaiveBaseline} {
			plan, err := e.Mitigate(sc, m, utility.Performance)
			if err != nil {
				t.Fatalf("%v/%v: %v", sc, m, err)
			}
			if plan.UtilityAfter < plan.UtilityUpgrade-1e-9 {
				t.Errorf("%v/%v: tuning made things worse", sc, m)
			}
		}
	}
}

func TestMitigateUnknownMethod(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Mitigate(upgrade.SingleSector, Method(9), utility.Performance); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestMitigateDefaultsUtility(t *testing.T) {
	e := testEngine(t)
	plan, err := e.Mitigate(upgrade.SingleSector, PowerOnly, utility.Func{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Util.Name != utility.Performance.Name {
		t.Errorf("default utility = %q, want performance", plan.Util.Name)
	}
}

func TestPlanGradualMigration(t *testing.T) {
	e := testEngine(t)
	plan, err := e.Mitigate(upgrade.SingleSector, Joint, utility.Performance)
	if err != nil {
		t.Fatal(err)
	}
	gradual, err := plan.GradualMigration(migrate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := plan.OneShotMigration(migrate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gradual.MaxSimultaneousHandovers > oneShot.MaxSimultaneousHandovers+1e-9 {
		t.Errorf("gradual burst %v above one-shot %v",
			gradual.MaxSimultaneousHandovers, oneShot.MaxSimultaneousHandovers)
	}
	if math.Abs(gradual.AfterUtility-plan.UtilityAfter) > 1e-9 {
		t.Errorf("migration floor %v != plan after utility %v",
			gradual.AfterUtility, plan.UtilityAfter)
	}
}

func TestPlanReactiveBaseline(t *testing.T) {
	e := testEngine(t)
	plan, err := e.Mitigate(upgrade.SingleSector, PowerOnly, utility.Performance)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.ReactiveBaseline(feedback.Idealized, feedback.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UtilityTimeline[0] != plan.UtilityUpgrade {
		t.Errorf("reactive starts at %v, want f(C_upgrade) %v",
			res.UtilityTimeline[0], plan.UtilityUpgrade)
	}
	// The proactive model-based plan needs 0 post-upgrade steps; the
	// reactive baseline needs at least as many as it reports, each
	// costing a measurement round.
	if res.Steps > 0 && res.Measurements == 0 {
		t.Error("steps without measurements")
	}
}

func TestEngineDeterministic(t *testing.T) {
	a := testEngine(t)
	b := testEngine(t)
	pa, err := a.Mitigate(upgrade.SingleSector, PowerOnly, utility.Performance)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Mitigate(upgrade.SingleSector, PowerOnly, utility.Performance)
	if err != nil {
		t.Fatal(err)
	}
	if pa.UtilityAfter != pb.UtilityAfter || pa.UtilityBefore != pb.UtilityBefore {
		t.Error("identical seeds should produce identical plans")
	}
}

func TestMitigateDegenerateSingleSiteMarket(t *testing.T) {
	// A market so small it has one site: the central sector's neighbors
	// are only its co-sited siblings; every pipeline stage must degrade
	// gracefully rather than fail.
	e, err := NewEngine(SetupConfig{
		Seed:        1,
		Class:       topology.Rural,
		RegionSpanM: 1200, // far below the rural inter-site distance
		CellSizeM:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Net.Sites) != 1 {
		t.Skipf("layout produced %d sites", len(e.Net.Sites))
	}
	plan, err := e.Mitigate(upgrade.SingleSector, Joint, utility.Performance)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UtilityAfter < plan.UtilityUpgrade-1e-9 {
		t.Error("degenerate market: tuning made things worse")
	}
	mig, err := plan.GradualMigration(migrate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mig.Steps) == 0 {
		t.Error("migration plan empty")
	}
	if _, err := plan.ReactiveBaseline(feedback.Idealized, feedback.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineOverrides(t *testing.T) {
	params := topology.ParamsFor(topology.Suburban)
	params.UEsPerSector = 10
	e, err := NewEngine(SetupConfig{
		Seed:            2,
		Class:           topology.Suburban,
		RegionSpanM:     5000,
		CellSizeM:       250,
		NeighborRadiusM: 1234,
		Params:          &params,
		EqualizeSteps:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.NeighborRadius() != 1234 {
		t.Errorf("neighbor radius override ignored: %v", e.NeighborRadius())
	}
	// Roughly 10 UEs per serving sector.
	perSector := e.Model.TotalUE() / float64(e.Net.NumSectors())
	if perSector > 10.01 {
		t.Errorf("UEs per sector %v above overridden nominal 10", perSector)
	}
}

func TestMitigateFullSiteLeavesNoTargetServing(t *testing.T) {
	e := testEngine(t)
	plan, err := e.Mitigate(upgrade.FullSite, PowerOnly, utility.Performance)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range plan.Targets {
		if plan.After.Load(tg) != 0 || plan.After.ServedGrids(tg) != 0 {
			t.Errorf("off-air target %d still serving in C_after", tg)
		}
	}
}

// TestBeforeIsFresh: an engine's C_before reads, grid by grid and bit
// for bit, what a state rebuilt from its configuration reads, after
// NewEngine and after a dataset swaps it; window sessions copy it on
// that promise.
func TestBeforeIsFresh(t *testing.T) {
	e := testEngine(t)
	sameAsRebuilt := func(where string) {
		t.Helper()
		got, want := e.Before, e.Model.NewState(e.Before.Cfg.Clone())
		for g := 0; g < e.Model.Grid.NumCells(); g++ {
			if got.ServingSector(g) != want.ServingSector(g) ||
				math.Float64bits(got.SINRdB(g)) != math.Float64bits(want.SINRdB(g)) ||
				math.Float64bits(got.MaxRateBps(g)) != math.Float64bits(want.MaxRateBps(g)) {
				t.Fatalf("%s: grid %d differs from a rebuilt state", where, g)
			}
		}
		for b := 0; b < e.Net.NumSectors(); b++ {
			if math.Float64bits(got.Load(b)) != math.Float64bits(want.Load(b)) || got.ServedGrids(b) != want.ServedGrids(b) {
				t.Fatalf("%s: sector %d load differs from a rebuilt state", where, b)
			}
		}
	}
	sameAsRebuilt("new engine")
	if _, err := e.UseDataset(e.ExportDataset(), sanitize.Repair); err != nil {
		t.Fatal(err)
	}
	sameAsRebuilt("dataset")
}
