package multicarrier

import (
	"math"
	"testing"

	"magus/internal/geo"
	"magus/internal/netmodel"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

func testNet(t *testing.T) *topology.Network {
	t.Helper()
	return topology.MustGenerate(topology.GenConfig{
		Seed:   3,
		Class:  topology.Suburban,
		Bounds: geo.NewRectCentered(geo.Point{}, 6000, 6000),
	})
}

func TestBuildValidation(t *testing.T) {
	net := testNet(t)
	if _, err := Build(net, nil, net.Bounds, 200); err == nil {
		t.Error("no carriers should fail")
	}
	bad := DefaultCarriers()
	bad[0].UEShare = 1.5
	if _, err := Build(net, bad, net.Bounds, 200); err == nil {
		t.Error("share above 1 should fail")
	}
	bad[0].UEShare = 0.5
	bad[0].FrequencyHz = 1
	if _, err := Build(net, bad, net.Bounds, 200); err == nil {
		t.Error("absurd frequency should fail")
	}
	bad[0].FrequencyHz = 2.6e9
	bad[0].BandwidthHz = 1234
	if _, err := Build(net, bad, net.Bounds, 200); err == nil {
		t.Error("bad bandwidth should fail")
	}
}

func TestBuildSplitsPopulation(t *testing.T) {
	net := testNet(t)
	mc, err := Build(net, DefaultCarriers(), net.Bounds, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Models) != 2 || len(mc.Baselines) != 2 {
		t.Fatalf("models/baselines = %d/%d, want 2/2", len(mc.Models), len(mc.Baselines))
	}
	// The 10 MHz layer carries 2/3 of the users, the 5 MHz layer 1/3.
	ratio := mc.Models[0].TotalUE() / mc.Models[1].TotalUE()
	if math.Abs(ratio-2) > 0.3 {
		t.Errorf("population ratio = %v, want approx 2", ratio)
	}
	// The wider carrier supports higher peak rates.
	if peakRate(mc.Models[0]) <= peakRate(mc.Models[1]) {
		t.Error("10 MHz carrier should outrate the 5 MHz carrier")
	}
}

// peakRate is the top step of a carrier's rate ladder.
func peakRate(m *netmodel.Model) float64 {
	_, rates := m.Link.RateLadder()
	return rates[len(rates)-1]
}

func TestMitigateMultiCarrier(t *testing.T) {
	net := testNet(t)
	mc, err := Build(net, DefaultCarriers(), net.Bounds, 200)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := upgrade.Targets(net, upgrade.SingleSector,
		geo.NewRectCentered(geo.Point{}, 2000, 2000))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mc.Mitigate(targets, utility.Performance)
	if err != nil {
		t.Fatal(err)
	}
	if !(plan.UtilityBefore >= plan.UtilityAfter && plan.UtilityAfter >= plan.UtilityUpgrade) {
		t.Errorf("utility ordering broken: before=%v after=%v upgrade=%v",
			plan.UtilityBefore, plan.UtilityAfter, plan.UtilityUpgrade)
	}
	rr := plan.RecoveryRatio()
	if rr < 0 || rr > 1.05 {
		t.Errorf("recovery ratio %v outside [0, 1]", rr)
	}
	// Each carrier's after-state has the target off.
	for i, st := range plan.PerCarrier {
		if !st.Cfg.Off(targets[0]) {
			t.Errorf("carrier %d target still on-air", i)
		}
	}
	// Total utility equals the sum of per-carrier utilities.
	sum := TotalUtility(plan.PerCarrier, utility.Performance)
	if math.Abs(sum-plan.UtilityAfter) > 1e-6 {
		t.Errorf("TotalUtility %v != plan after %v", sum, plan.UtilityAfter)
	}
}

func TestSmallCellUnderlayAbsorbsUpgrade(t *testing.T) {
	// A suburban market with and without a small-cell underlay: the
	// underlay offers extra attachment options for displaced users, so
	// the upgrade hurts less.
	run := func(smallCells bool) (upgradeDrop float64) {
		net := testNet(t)
		if smallCells {
			net.AddSmallCells(99, 12, geo.NewRectCentered(geo.Point{}, 3000, 3000),
				topology.SmallCellParams{})
		}
		mc, err := Build(net, DefaultCarriers()[:1], net.Bounds, 200)
		if err != nil {
			t.Fatal(err)
		}
		targets, err := upgrade.Targets(net, upgrade.SingleSector,
			geo.NewRectCentered(geo.Point{}, 2000, 2000))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := mc.Mitigate(targets, utility.Performance)
		if err != nil {
			t.Fatal(err)
		}
		return (plan.UtilityBefore - plan.UtilityUpgrade) / plan.UtilityBefore
	}
	macroOnly := run(false)
	withUnderlay := run(true)
	if withUnderlay >= macroOnly {
		t.Errorf("small-cell underlay should soften the upgrade: drop %v vs %v",
			withUnderlay, macroOnly)
	}
}

func TestAddSmallCellsShape(t *testing.T) {
	net := testNet(t)
	before := net.NumSectors()
	area := geo.NewRectCentered(geo.Point{}, 2000, 2000)
	ids := net.AddSmallCells(7, 5, area, topology.SmallCellParams{})
	if len(ids) != 5 || net.NumSectors() != before+5 {
		t.Fatalf("added %d sectors, want 5", net.NumSectors()-before)
	}
	for _, id := range ids {
		sec := net.Sectors[id]
		if !area.Contains(sec.Pos) {
			t.Errorf("small cell %d outside requested bounds", id)
		}
		if sec.HeightM >= net.Params.HeightM {
			t.Errorf("small cell %d as tall as a macro", id)
		}
		if sec.DefaultPowerDbm >= net.Params.PowerDbm {
			t.Errorf("small cell %d as loud as a macro", id)
		}
		if len(net.SiteOf(id).Sectors) != 1 {
			t.Errorf("small cell %d not a one-sector site", id)
		}
		// Omni: negligible horizontal attenuation anywhere.
		if att := sec.Pattern.HorizontalAttenuation(180); att < -0.01 {
			t.Errorf("small cell %d not omni: back attenuation %v", id, att)
		}
	}
	// Determinism.
	net2 := testNet(t)
	ids2 := net2.AddSmallCells(7, 5, area, topology.SmallCellParams{})
	for i := range ids {
		if net.Sectors[ids[i]].Pos != net2.Sectors[ids2[i]].Pos {
			t.Fatal("small cell placement not deterministic")
		}
	}
}

func TestDualRATMitigation(t *testing.T) {
	net := testNet(t)
	mc, err := Build(net, DefaultDualRAT(), net.Bounds, 200)
	if err != nil {
		t.Fatal(err)
	}
	// The UMTS layer uses the HSDPA rate pipeline.
	if got := peakRate(mc.Models[1]); got != 14.0e6 {
		t.Errorf("UMTS layer peak = %v, want 14 Mb/s (HSDPA cat 10)", got)
	}
	if got := peakRate(mc.Models[0]); got != 36696*1000 {
		t.Errorf("LTE layer peak = %v, want 36.696 Mb/s", got)
	}
	targets, err := upgrade.Targets(net, upgrade.FullSite,
		geo.NewRectCentered(geo.Point{}, 2000, 2000))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mc.Mitigate(targets, utility.Performance)
	if err != nil {
		t.Fatal(err)
	}
	if !(plan.UtilityBefore >= plan.UtilityAfter && plan.UtilityAfter >= plan.UtilityUpgrade) {
		t.Errorf("dual-RAT utility ordering broken: %v / %v / %v",
			plan.UtilityBefore, plan.UtilityAfter, plan.UtilityUpgrade)
	}
	// The full site goes down on BOTH technologies at once.
	for i, st := range plan.PerCarrier {
		for _, tg := range targets {
			if !st.Cfg.Off(tg) {
				t.Errorf("carrier %d: target %d still on-air", i, tg)
			}
		}
	}
}
