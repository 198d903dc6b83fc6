package experiments

import (
	"fmt"
	"strings"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/migrate"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// Figure11 compares the gradual migration against the direct (one-shot)
// proactive strategy, the paper's Figure 11: per-step utility and
// handover series, burst reduction factor, and seamless fractions.
type Figure11 struct {
	Gradual *migrate.Plan
	OneShot *migrate.Plan
	// BurstReductionFactor is one-shot max burst / gradual max burst
	// (the paper reports 3x for its example, 8x across scenarios).
	BurstReductionFactor float64
}

// RunFigure11 plans a suburban scenario-(b) upgrade (a full site going
// down displaces the most users) and produces both migration plans.
func RunFigure11(env *campaign.Env, seed int64) (*Figure11, error) {
	engine, err := env.Build(seed, campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		return nil, fmt.Errorf("figure11: %w", err)
	}
	plan, err := engine.Mitigate(upgrade.FullSite, core.Joint, utility.Performance)
	if err != nil {
		return nil, fmt.Errorf("figure11: %w", err)
	}
	gradual, err := plan.GradualMigration(migrate.Options{})
	if err != nil {
		return nil, fmt.Errorf("figure11 gradual: %w", err)
	}
	oneShot, err := plan.OneShotMigration(migrate.Options{})
	if err != nil {
		return nil, fmt.Errorf("figure11 oneshot: %w", err)
	}
	out := &Figure11{Gradual: gradual, OneShot: oneShot}
	if gradual.MaxSimultaneousHandovers > 0 {
		out.BurstReductionFactor = oneShot.MaxSimultaneousHandovers / gradual.MaxSimultaneousHandovers
	}
	return out, nil
}

// String prints the step series and the headline comparisons.
func (f *Figure11) String() string {
	var b strings.Builder
	b.WriteString("Figure 11: benefits of gradual tuning (Proactive Gradual vs Proactive)\n")
	fmt.Fprintf(&b, "  gradual: steps=%d max burst=%.0f total handovers=%.0f seamless=%.1f%% floor=%.1f (f(C_after)=%.1f)\n",
		len(f.Gradual.Steps), f.Gradual.MaxSimultaneousHandovers, f.Gradual.TotalHandovers,
		100*f.Gradual.SeamlessFraction(), f.Gradual.UtilityFloor, f.Gradual.AfterUtility)
	fmt.Fprintf(&b, "  one-shot: max burst=%.0f total handovers=%.0f seamless=%.1f%%\n",
		f.OneShot.MaxSimultaneousHandovers, f.OneShot.TotalHandovers,
		100*f.OneShot.SeamlessFraction())
	fmt.Fprintf(&b, "  simultaneous-handover reduction: %.1fx\n", f.BurstReductionFactor)
	fmt.Fprintf(&b, "  %4s %10s %10s %10s %6s\n", "step", "utility", "handovers", "seamless", "comp")
	for i, s := range f.Gradual.Steps {
		mark := ""
		if s.UpgradeStep {
			mark = "  <- upgrade"
		}
		fmt.Fprintf(&b, "  %4d %10.1f %10.0f %10.0f %6d%s\n",
			i, s.Utility, s.Handovers, s.Seamless, s.Compensations, mark)
	}
	return b.String()
}
