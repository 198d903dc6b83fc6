package experiments

import (
	"fmt"
	"strings"

	"magus/internal/campaign"
	"magus/internal/config"
	"magus/internal/core"
	"magus/internal/geo"
	"magus/internal/hybrid"
	"magus/internal/loadbalance"
	"magus/internal/multicarrier"
	"magus/internal/outageplan"
	"magus/internal/signaling"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// HybridSweep evaluates the paper's Section 2 hybrid strategy across
// model-error magnitudes: how much utility pure model-based tuning loses
// to model error, how much a short feedback phase (k steps) claws back,
// and how k compares to the from-scratch feedback cost K.
type HybridSweep struct {
	ErrorsDB []float64
	Results  []*hybrid.Result
}

// RunHybridSweep runs the hybrid evaluation at several model-error
// levels.
func RunHybridSweep(seed int64) (*HybridSweep, error) {
	sweep := &HybridSweep{ErrorsDB: []float64{0.001, 2, 4, 8}}
	for _, errDB := range sweep.ErrorsDB {
		res, err := hybrid.Run(hybrid.Config{
			Seed:         seed,
			Class:        topology.Suburban,
			RegionSpanM:  6000,
			CellSizeM:    200,
			ModelErrorDB: errDB,
		})
		if err != nil {
			return nil, fmt.Errorf("hybrid sweep %v dB: %w", errDB, err)
		}
		sweep.Results = append(sweep.Results, res)
	}
	return sweep, nil
}

// String prints the k-vs-K table.
func (h *HybridSweep) String() string {
	var b strings.Builder
	b.WriteString("Extension (paper Section 2): hybrid model+feedback under model error\n")
	fmt.Fprintf(&b, "  %8s %12s %12s %12s %8s %8s\n",
		"error dB", "model-only", "hybrid", "fb-only", "k", "K")
	for i, r := range h.Results {
		fmt.Fprintf(&b, "  %8.1f %12.1f %12.1f %12.1f %8d %8d\n",
			h.ErrorsDB[i], r.ModelOnlyUtility, r.HybridUtility,
			r.FeedbackOnlyUtility, r.HybridSteps, r.FeedbackOnlySteps)
	}
	b.WriteString("  (k = feedback steps from the model-based config; K = from scratch)\n")
	return b.String()
}

// SignalingComparison quantifies the control-plane strain of gradual vs
// one-shot migration (the reason Figure 11 exists).
type SignalingComparison struct {
	Gradual *signaling.Report
	OneShot *signaling.Report
}

// RunSignaling replays the Figure 11 migration plans through the
// signaling queue model.
func RunSignaling(env *campaign.Env, seed int64) (*SignalingComparison, error) {
	fig, err := RunFigure11(env, seed)
	if err != nil {
		return nil, err
	}
	g, o, err := signaling.Compare(fig.Gradual, fig.OneShot, signaling.Config{})
	if err != nil {
		return nil, err
	}
	return &SignalingComparison{Gradual: g, OneShot: o}, nil
}

// String prints both reports.
func (s *SignalingComparison) String() string {
	var b strings.Builder
	b.WriteString("Extension: handover signaling strain (gradual vs one-shot)\n")
	fmt.Fprintf(&b, "gradual  -> %s", s.Gradual)
	fmt.Fprintf(&b, "one-shot -> %s", s.OneShot)
	return b.String()
}

// OutageStudy reports the unplanned-outage planner (paper Section 8
// future work): precomputation coverage and the utility of responding
// from the table versus searching live.
type OutageStudy struct {
	Covered   int
	Responses []*outageplan.Response
	// MeanExpectedRecovery averages the precomputed recovery ratios.
	MeanExpectedRecovery float64
}

// RunOutageStudy precomputes responses for the tuning-area sectors and
// replays an outage of each covered sector.
func RunOutageStudy(env *campaign.Env, seed int64) (*OutageStudy, error) {
	engine, err := env.Build(seed, campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		return nil, err
	}
	planner, err := outageplan.New(engine, nil, outageplan.Options{})
	if err != nil {
		return nil, err
	}
	study := &OutageStudy{Covered: len(planner.Covered())}
	for _, sector := range planner.Covered() {
		entry, _ := planner.Lookup(sector)
		study.MeanExpectedRecovery += entry.ExpectedRecovery / float64(study.Covered)
		resp, err := planner.Respond(sector, 3)
		if err != nil {
			return nil, err
		}
		study.Responses = append(study.Responses, resp)
	}
	return study, nil
}

// String prints the per-outage response table.
func (o *OutageStudy) String() string {
	var b strings.Builder
	b.WriteString("Extension (paper Section 8): precomputed configurations for unplanned outages\n")
	fmt.Fprintf(&b, "  %d sectors covered, mean expected recovery %.1f%%\n",
		o.Covered, 100*o.MeanExpectedRecovery)
	fmt.Fprintf(&b, "  %6s %10s %10s %10s %6s\n", "hit", "outage", "applied", "refined", "steps")
	for _, r := range o.Responses {
		fmt.Fprintf(&b, "  %6v %10.1f %10.1f %10.1f %6d\n",
			r.Precomputed, r.UtilityOutage, r.UtilityApplied, r.UtilityRefined, r.RefinementSteps)
	}
	return b.String()
}

// LoadBalanceStudy reports the congestion-relief extension.
type LoadBalanceStudy struct {
	Result *loadbalance.Result
}

// RunLoadBalance overloads a suburban market (two sectors of one site
// down) and balances the survivors.
func RunLoadBalance(env *campaign.Env, seed int64) (*LoadBalanceStudy, error) {
	engine, err := env.Build(seed, campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		return nil, err
	}
	st := engine.Before.Clone()
	central := engine.Net.CentralSite()
	for site := range engine.Net.Sites {
		if site == central {
			continue
		}
		secs := engine.Net.Sites[site].Sectors
		st.MustApply(config.Change{Sector: secs[0], TurnOff: true})
		st.MustApply(config.Change{Sector: secs[1], TurnOff: true})
		break
	}
	res, err := loadbalance.Balance(st, loadbalance.Options{})
	if err != nil {
		return nil, err
	}
	return &LoadBalanceStudy{Result: res}, nil
}

// String prints the balancing summary.
func (l *LoadBalanceStudy) String() string {
	return "Extension (paper Section 8): load balancing via the predictive model\n  " +
		l.Result.String() + "\n"
}

// MultiCarrierStudy compares single-carrier and two-carrier deployments
// of the same market under the same upgrade (the paper's multi-carrier
// generalization, Section 1).
type MultiCarrierStudy struct {
	SingleRecovery float64
	DualRecovery   float64
	// DualUpgradeDropFrac is the relative utility drop the upgrade causes
	// in the dual-carrier deployment.
	DualUpgradeDropFrac   float64
	SingleUpgradeDropFrac float64
}

// RunMultiCarrier plans a suburban scenario-(a) upgrade on one- and
// two-carrier deployments.
func RunMultiCarrier(seed int64) (*MultiCarrierStudy, error) {
	net, err := topology.Generate(topology.GenConfig{
		Seed:   seed,
		Class:  topology.Suburban,
		Bounds: geo.NewRectCentered(geo.Point{}, 6000, 6000),
	})
	if err != nil {
		return nil, err
	}
	targets, err := upgrade.Targets(net, upgrade.SingleSector,
		geo.NewRectCentered(geo.Point{}, 2000, 2000))
	if err != nil {
		return nil, err
	}
	study := &MultiCarrierStudy{}
	for _, dual := range []bool{false, true} {
		carriers := multicarrier.DefaultCarriers()
		if !dual {
			carriers = carriers[:1]
			carriers[0].UEShare = 1
		}
		mc, err := multicarrier.Build(net, carriers, net.Bounds, 200)
		if err != nil {
			return nil, err
		}
		plan, err := mc.Mitigate(targets, utility.Performance)
		if err != nil {
			return nil, err
		}
		drop := 0.0
		if plan.UtilityBefore > 0 {
			drop = (plan.UtilityBefore - plan.UtilityUpgrade) / plan.UtilityBefore
		}
		if dual {
			study.DualRecovery = plan.RecoveryRatio()
			study.DualUpgradeDropFrac = drop
		} else {
			study.SingleRecovery = plan.RecoveryRatio()
			study.SingleUpgradeDropFrac = drop
		}
	}
	return study, nil
}

// String prints the comparison.
func (m *MultiCarrierStudy) String() string {
	return fmt.Sprintf(
		"Extension (paper Section 1): multi-carrier deployments\n"+
			"  single carrier: upgrade drop %.2f%%, recovery %.1f%%\n"+
			"  dual carrier:   upgrade drop %.2f%%, recovery %.1f%%\n",
		100*m.SingleUpgradeDropFrac, 100*m.SingleRecovery,
		100*m.DualUpgradeDropFrac, 100*m.DualRecovery)
}

// UEDistributionStudy compares recovery under the paper's uniform
// per-sector UE assumption against a clutter-weighted distribution (its
// Section 4.2 "finer-grain information" extension).
type UEDistributionStudy struct {
	UniformRecovery  float64
	WeightedRecovery float64
}

// RunUEDistribution plans the same upgrade under both distributions on
// a terrain-enabled market.
func RunUEDistribution(seed int64) (*UEDistributionStudy, error) {
	build := func(weighted bool) (float64, error) {
		engine, err := core.NewEngine(core.SetupConfig{
			Seed:        seed,
			Class:       topology.Suburban,
			RegionSpanM: 6000,
			CellSizeM:   200,
			WithTerrain: true,
		})
		if err != nil {
			return 0, err
		}
		if weighted {
			terr := engine.Terrain
			grid := engine.Model.Grid
			engine.Before.AssignUsersWeighted(func(g int) float64 {
				return terr.ClutterAt(grid.CellCenterIdx(g)).DensityWeight()
			})
		}
		plan, err := engine.Mitigate(upgrade.SingleSector, core.Joint, utility.Performance)
		if err != nil {
			return 0, err
		}
		return plan.RecoveryRatio(), nil
	}
	uniform, err := build(false)
	if err != nil {
		return nil, err
	}
	weighted, err := build(true)
	if err != nil {
		return nil, err
	}
	return &UEDistributionStudy{UniformRecovery: uniform, WeightedRecovery: weighted}, nil
}

// String prints the comparison.
func (u *UEDistributionStudy) String() string {
	return fmt.Sprintf(
		"Extension (paper Section 4.2): UE distribution sensitivity\n"+
			"  uniform per-sector recovery:   %.1f%%\n"+
			"  clutter-weighted recovery:     %.1f%%\n",
		100*u.UniformRecovery, 100*u.WeightedRecovery)
}
