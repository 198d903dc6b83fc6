package experiments

import (
	"fmt"
	"strings"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/feedback"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// Figure12 compares the convergence speed of the four strategies of the
// paper's Figure 12: proactive model-based, reactive model-based,
// reactive feedback-based, and no tuning.
type Figure12 struct {
	// Series are the utility-versus-step curves.
	Series []feedback.Series
	// IdealizedSteps is the number of tuning steps the feedback approach
	// needs when an oracle picks the best move (the paper measures 27).
	IdealizedSteps int
	// RealisticMeasurements is the number of measurement rounds when
	// each candidate must be probed in the live network (the paper
	// estimates 310).
	RealisticMeasurements int
	// RealisticHours is the wall-clock convergence time at the default
	// measurement interval ("could recover performance only after two
	// hours").
	RealisticHours float64
	// UpgradeUtility and AfterUtility anchor the series.
	UpgradeUtility float64
	AfterUtility   float64
}

// RunFigure12 runs the convergence comparison on a suburban
// scenario-(a) upgrade.
func RunFigure12(env *campaign.Env, seed int64) (*Figure12, error) {
	engine, err := env.Build(seed, campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		return nil, fmt.Errorf("figure12: %w", err)
	}
	plan, err := engine.Mitigate(upgrade.SingleSector, core.PowerOnly, utility.Performance)
	if err != nil {
		return nil, fmt.Errorf("figure12: %w", err)
	}
	idealized, err := plan.ReactiveBaseline(feedback.Idealized, feedback.Options{IncludeTilt: true})
	if err != nil {
		return nil, fmt.Errorf("figure12 idealized: %w", err)
	}
	realistic, err := plan.ReactiveBaseline(feedback.Realistic, feedback.Options{IncludeTilt: true})
	if err != nil {
		return nil, fmt.Errorf("figure12 realistic: %w", err)
	}
	out := &Figure12{
		IdealizedSteps:        idealized.Steps,
		RealisticMeasurements: realistic.Measurements,
		RealisticHours:        realistic.TimeSeconds / 3600,
		UpgradeUtility:        plan.UtilityUpgrade,
		AfterUtility:          plan.UtilityAfter,
	}
	out.Series = feedback.ConvergenceSeries(plan.UtilityUpgrade, plan.UtilityAfter, idealized,
		idealized.Steps+2)
	return out, nil
}

// String prints the step counts and the utility series.
func (f *Figure12) String() string {
	var b strings.Builder
	b.WriteString("Figure 12: speed of convergence across tuning approaches\n")
	fmt.Fprintf(&b, "  idealized feedback steps:        %d\n", f.IdealizedSteps)
	fmt.Fprintf(&b, "  realistic feedback measurements: %d (%.1f h at 5 min/round)\n",
		f.RealisticMeasurements, f.RealisticHours)
	fmt.Fprintf(&b, "  proactive model-based steps after upgrade: 0\n")
	fmt.Fprintf(&b, "  %5s", "step")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %18s", s.Name)
	}
	b.WriteByte('\n')
	if len(f.Series) > 0 {
		for i := range f.Series[0].Points {
			fmt.Fprintf(&b, "  %5d", i)
			for _, s := range f.Series {
				fmt.Fprintf(&b, " %18.1f", s.Points[i].Utility)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
