package experiments

import (
	"strings"
	"testing"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/topology"
	"magus/internal/upgrade"
)

// Tests use a single replicate seed: the engine cache makes the suite
// share built markets, and the qualitative assertions hold per seed.
var testSeeds = []int64{1}

// testEnv is the suite's one environment: runners share its engine
// cache, so each market builds once.
var testEnv = &campaign.Env{Engines: campaign.NewEngineCache(0)}

func runTable1(t *testing.T) *Table1 {
	t.Helper()
	tab, err := RunTable1(testEnv, Table1Options{Seeds: testSeeds})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTable1CellsInRange(t *testing.T) {
	tab := runTable1(t)
	for _, class := range AllClasses {
		for _, sc := range tab.Scenarios {
			for _, m := range tab.Methods {
				rr := tab.Cell(class, sc, m)
				if rr < -0.05 || rr > 1.05 {
					t.Errorf("%v %v %v: recovery %v outside [0, 1]", class, sc, m, rr)
				}
			}
		}
	}
}

func TestTable1SuburbanDominatesPower(t *testing.T) {
	// The paper's headline Table 1 finding: "the greatest gains are in
	// suburban areas" for power tuning.
	tab := runTable1(t)
	sub := tab.MeanByClass(topology.Suburban, core.PowerOnly)
	rur := tab.MeanByClass(topology.Rural, core.PowerOnly)
	urb := tab.MeanByClass(topology.Urban, core.PowerOnly)
	if sub <= rur {
		t.Errorf("suburban power recovery %v not above rural %v", sub, rur)
	}
	if sub <= urb {
		t.Errorf("suburban power recovery %v not above urban %v", sub, urb)
	}
}

func TestTable1JointBeatsIndividual(t *testing.T) {
	// "the joint approach always performs better than power-tuning and
	// tilt-tuning individually" — asserted on per-class means.
	tab := runTable1(t)
	for _, class := range AllClasses {
		joint := tab.MeanByClass(class, core.Joint)
		power := tab.MeanByClass(class, core.PowerOnly)
		tilt := tab.MeanByClass(class, core.TiltOnly)
		if joint < power-0.02 {
			t.Errorf("%v: joint %v below power %v", class, joint, power)
		}
		if joint < tilt-0.02 {
			t.Errorf("%v: joint %v below tilt %v", class, joint, tilt)
		}
	}
}

func TestTable1TiltWeakerThanPowerOverall(t *testing.T) {
	// "In general, tilt-tuning cannot be as good as power-tuning" — an
	// aggregate claim (the paper itself has per-cell exceptions, e.g.
	// urban (b)).
	tab := runTable1(t)
	power, tilt := 0.0, 0.0
	for _, class := range AllClasses {
		power += tab.MeanByClass(class, core.PowerOnly)
		tilt += tab.MeanByClass(class, core.TiltOnly)
	}
	if tilt >= power {
		t.Errorf("aggregate tilt recovery %v not below power %v", tilt, power)
	}
}

func TestTable1String(t *testing.T) {
	tab := runTable1(t)
	s := tab.String()
	for _, want := range []string{"Table 1", "power-tuning", "tilt-tuning", "joint", "sub(a)", "%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, s)
		}
	}
}

func TestTable2DiagonalDominance(t *testing.T) {
	tab, err := RunTable2(testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	perf := tab.Recovery["performance"]
	cov := tab.Recovery["coverage"]
	// Optimizing for a metric must recover that metric better than
	// optimizing for the other one — Table 2's message.
	if perf["performance"] <= cov["performance"] {
		t.Errorf("performance recovery: optimizing perf %v should beat optimizing cov %v",
			perf["performance"], cov["performance"])
	}
	if cov["coverage"] <= perf["coverage"] {
		t.Errorf("coverage recovery: optimizing cov %v should beat optimizing perf %v",
			cov["coverage"], perf["coverage"])
	}
	if !strings.Contains(tab.String(), "Table 2") {
		t.Error("Table2 output header missing")
	}
}

func TestFigure8DensityOrdering(t *testing.T) {
	fig, err := RunFigure8(testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(fig.Rows))
	}
	// Paper: 26 rural / 55 suburban / 178 urban interfering sectors —
	// strictly increasing with density.
	for i := 1; i < len(fig.Rows); i++ {
		if fig.Rows[i].InterferingSectors <= fig.Rows[i-1].InterferingSectors {
			t.Errorf("interferer count not increasing: %v=%d vs %v=%d",
				fig.Rows[i-1].Class, fig.Rows[i-1].InterferingSectors,
				fig.Rows[i].Class, fig.Rows[i].InterferingSectors)
		}
	}
	for _, r := range fig.Rows {
		if r.ServedFraction <= 0.3 || r.ServedFraction > 1 {
			t.Errorf("%v served fraction %v implausible", r.Class, r.ServedFraction)
		}
		if r.CoverageMap == "" {
			t.Errorf("%v missing coverage map", r.Class)
		}
	}
	if !strings.Contains(fig.String(), "Figure 8") {
		t.Error("Figure8 output header missing")
	}
}

func TestFigure10RuralLimit(t *testing.T) {
	fig, err := RunFigure10(testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ServedUpgrade >= fig.ServedBefore {
		t.Errorf("upgrade should cost coverage: %d -> %d", fig.ServedBefore, fig.ServedUpgrade)
	}
	// The paper's Figure 10 claim: even a +10 dB neighbor boost cannot
	// recover rural coverage (noise-limited, power-capped).
	if fig.RecoveredFraction > 0.5 {
		t.Errorf("rural boost recovered %v of coverage, expected under half", fig.RecoveredFraction)
	}
	if !fig.BoostHitsPowerCap {
		t.Error("+10 dB should exceed the rural hardware power cap")
	}
	if !strings.Contains(fig.String(), "Figure 10") {
		t.Error("Figure10 output header missing")
	}
}

func TestFigure11GradualBenefits(t *testing.T) {
	fig, err := RunFigure11(testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, o := fig.Gradual, fig.OneShot
	if g.MaxSimultaneousHandovers > o.MaxSimultaneousHandovers {
		t.Errorf("gradual burst %v above one-shot %v",
			g.MaxSimultaneousHandovers, o.MaxSimultaneousHandovers)
	}
	if fig.BurstReductionFactor < 1.5 {
		t.Errorf("burst reduction %vx, want >= 1.5x (paper: 3x)", fig.BurstReductionFactor)
	}
	// Paper: 96-99.7% of UEs get a seamless handover under gradual
	// tuning.
	if g.SeamlessFraction() < 0.9 {
		t.Errorf("gradual seamless fraction %v, want >= 0.9", g.SeamlessFraction())
	}
	if g.SeamlessFraction() <= o.SeamlessFraction() {
		t.Errorf("gradual seamless %v should beat one-shot %v",
			g.SeamlessFraction(), o.SeamlessFraction())
	}
	// Utility floor: never below f(C_after) among non-jump steps.
	if !g.JumpedToAfter && g.UtilityFloor < g.AfterUtility-1e-9 {
		t.Errorf("utility floor %v below f(C_after) %v", g.UtilityFloor, g.AfterUtility)
	}
	if !strings.Contains(fig.String(), "Figure 11") {
		t.Error("Figure11 output header missing")
	}
}

func TestFigure12ConvergenceShape(t *testing.T) {
	fig, err := RunFigure12(testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fig.IdealizedSteps < 1 {
		t.Error("idealized feedback should need at least one step")
	}
	// The realistic estimate costs far more measurement rounds than the
	// idealized one (the paper's 27 vs 310).
	if fig.RealisticMeasurements <= fig.IdealizedSteps {
		t.Errorf("realistic measurements %d not above idealized steps %d",
			fig.RealisticMeasurements, fig.IdealizedSteps)
	}
	// Convergence takes hours at realistic measurement cost (paper:
	// "could recover performance only after two hours").
	if fig.RealisticHours < 1 {
		t.Errorf("realistic convergence %v h, expected >= 1 h", fig.RealisticHours)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(fig.Series))
	}
	if !strings.Contains(fig.String(), "Figure 12") {
		t.Error("Figure12 output header missing")
	}
}

func TestFigure13ImprovementDistribution(t *testing.T) {
	fig, err := RunFigure13(testEnv, Figure13Options{Seeds: testSeeds})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Ratios) == 0 {
		t.Fatal("no improvement ratios collected")
	}
	if len(fig.Ratios)+fig.Skipped != 9 {
		t.Errorf("expected 9 scenarios for one seed, got %d + %d skipped",
			len(fig.Ratios), fig.Skipped)
	}
	for _, r := range fig.Ratios {
		if r <= 0 {
			t.Errorf("improvement ratio %v should be positive", r)
		}
	}
	// The paper's average is 1.21 ("overall, our algorithm is 21%
	// better"); ours should at least favor Magus on average.
	if fig.Summary.Mean < 0.9 {
		t.Errorf("mean improvement ratio %v, want >= 0.9", fig.Summary.Mean)
	}
	if fig.FractionAtLeastNaive < 0.4 {
		t.Errorf("Magus at least as good as naive in only %v of scenarios",
			fig.FractionAtLeastNaive)
	}
	if !strings.Contains(fig.String(), "Figure 13") {
		t.Error("Figure13 output header missing")
	}
}

func TestFigure2TestbedShape(t *testing.T) {
	fig, err := RunFigure2(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []struct {
		name                   string
		before, upgrade, after float64
	}{
		{"scenario1", fig.Scenario1.UtilityBefore, fig.Scenario1.UtilityUpgrade, fig.Scenario1.UtilityAfter},
		{"scenario2", fig.Scenario2.UtilityBefore, fig.Scenario2.UtilityUpgrade, fig.Scenario2.UtilityAfter},
	} {
		if !(res.before > res.after && res.after >= res.upgrade) {
			t.Errorf("%s: want f(C_before) > f(C_after) >= f(C_upgrade), got %v / %v / %v",
				res.name, res.before, res.after, res.upgrade)
		}
	}
	if !strings.Contains(fig.String(), "Figure 2") {
		t.Error("Figure2 output header missing")
	}
}

func TestCalendarMatchesPaperObservations(t *testing.T) {
	cal := RunCalendar(1)
	if cal.Stats.DaysCovered != cal.Days {
		t.Errorf("upgrades on %d of %d days; paper observes upgrades every day",
			cal.Stats.DaysCovered, cal.Days)
	}
	if cal.Stats.TueFriRatio < 1.8 {
		t.Errorf("Tue-Fri ratio %v, paper observes more than 2x", cal.Stats.TueFriRatio)
	}
	if cal.Stats.MeanDurationHours < 4 || cal.Stats.MeanDurationHours > 6 {
		t.Errorf("mean duration %v h, paper observes 4-6 h", cal.Stats.MeanDurationHours)
	}
	if !strings.Contains(cal.String(), "planned upgrades") {
		t.Error("Calendar output missing")
	}
}

func TestRunMaps(t *testing.T) {
	maps, err := RunMaps(testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if maps.PathLossMinDB >= maps.PathLossMaxDB || maps.PathLossMaxDB >= 0 {
		t.Errorf("path loss range [%v, %v] implausible", maps.PathLossMinDB, maps.PathLossMaxDB)
	}
	// Figure 3's raster spans a wide dynamic range (the paper's spans
	// about 180 dB over 60 km; our smaller region still spans > 40 dB).
	if maps.PathLossMaxDB-maps.PathLossMinDB < 40 {
		t.Errorf("path loss dynamic range only %v dB", maps.PathLossMaxDB-maps.PathLossMinDB)
	}
	if maps.ServedFraction <= 0.3 || maps.ServedFraction > 1 {
		t.Errorf("served fraction %v implausible", maps.ServedFraction)
	}
	for _, s := range []string{maps.PathLossASCII, maps.CoverageASCII, maps.TuningComparison} {
		if len(s) < 100 {
			t.Error("map rendering suspiciously short")
		}
	}
	if !strings.Contains(maps.String(), "Figure 3") {
		t.Error("Maps output header missing")
	}
}

func TestUpgradeScenarioTargetCounts(t *testing.T) {
	e, err := testEnv.Build(1, campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		t.Fatal(err)
	}
	want := map[upgrade.Scenario]int{
		upgrade.SingleSector: 1,
		upgrade.FullSite:     3,
		upgrade.FourCorners:  4,
	}
	for sc, n := range want {
		targets, err := upgrade.Targets(e.Net, sc, e.TuningArea())
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) != n {
			t.Errorf("%v: %d targets, want %d", sc, len(targets), n)
		}
	}
}
