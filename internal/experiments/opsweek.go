package experiments

import (
	"fmt"
	"strings"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/impact"
	"magus/internal/migrate"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// OpsEvent is one planned upgrade handled during the maintenance window.
type OpsEvent struct {
	Calendar upgrade.Event
	// Target is the sector taken off-air for this event.
	Target int
	// Recovery is the mitigation's recovery ratio.
	Recovery float64
	// BurstMitigated and BurstOneShot compare the handover bursts.
	BurstMitigated float64
	BurstOneShot   float64
	// WorstUnmitigated and WorstMitigated grade the impact reports.
	WorstUnmitigated impact.Severity
	WorstMitigated   impact.Severity
}

// OpsWeek is an end-to-end integration run: a synthetic maintenance
// calendar drives the full pipeline — plan, migrate, assess — for every
// upgrade event, the way an operations team would consume Magus over a
// real week.
type OpsWeek struct {
	Events []OpsEvent
	// MeanRecovery averages the per-event recovery ratios.
	MeanRecovery float64
	// BurstReduction is the mean one-shot/gradual burst ratio.
	BurstReduction float64
	// Downgraded counts events whose worst impact severity improved
	// under mitigation.
	Downgraded int
}

// RunOpsWeek executes the maintenance window: events come from the
// Section 1 calendar, targets rotate through the tuning-area sectors.
// days bounds the calendar slice (default 2, keeping the default run
// at a few seconds).
func RunOpsWeek(env *campaign.Env, seed int64, days int) (*OpsWeek, error) {
	if days <= 0 {
		days = 2
	}
	engine, err := env.Build(seed, campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		return nil, fmt.Errorf("opsweek: %w", err)
	}
	calendar := upgrade.GenerateCalendar(upgrade.CalendarConfig{Seed: seed, Days: days})

	var scope []int
	for b := range engine.Net.Sectors {
		if engine.TuningArea().Contains(engine.Net.Sectors[b].Pos) {
			scope = append(scope, b)
		}
	}
	if len(scope) == 0 {
		scope = engine.Net.Sites[engine.Net.CentralSite()].Sectors
	}

	before := impact.Take(engine.Before)
	out := &OpsWeek{}
	burstSum, burstN := 0.0, 0
	for i, ev := range calendar {
		target := scope[i%len(scope)]
		plan, err := engine.MitigateTargets(upgrade.SingleSector, core.Joint,
			utility.Performance, []int{target})
		if err != nil {
			return nil, fmt.Errorf("opsweek event %d: %w", i, err)
		}
		gradual, err := plan.GradualMigration(migrate.Options{})
		if err != nil {
			return nil, err
		}
		oneShot, err := plan.OneShotMigration(migrate.Options{})
		if err != nil {
			return nil, err
		}
		rawImpact, err := impact.Assess(before, impact.Take(plan.Upgrade), impact.Thresholds{})
		if err != nil {
			return nil, err
		}
		mitImpact, err := impact.Assess(before, impact.Take(plan.After), impact.Thresholds{})
		if err != nil {
			return nil, err
		}
		oe := OpsEvent{
			Calendar:         ev,
			Target:           target,
			Recovery:         plan.RecoveryRatio(),
			BurstMitigated:   gradual.MaxSimultaneousHandovers,
			BurstOneShot:     oneShot.MaxSimultaneousHandovers,
			WorstUnmitigated: rawImpact.Worst(),
			WorstMitigated:   mitImpact.Worst(),
		}
		out.Events = append(out.Events, oe)
		out.MeanRecovery += oe.Recovery
		if oe.BurstMitigated > 0 {
			burstSum += oe.BurstOneShot / oe.BurstMitigated
			burstN++
		}
		if oe.WorstMitigated < oe.WorstUnmitigated {
			out.Downgraded++
		}
	}
	if len(out.Events) > 0 {
		out.MeanRecovery /= float64(len(out.Events))
	}
	if burstN > 0 {
		out.BurstReduction = burstSum / float64(burstN)
	}
	return out, nil
}

// String prints the per-event table and the window summary.
func (o *OpsWeek) String() string {
	var b strings.Builder
	b.WriteString("Integration: a maintenance window end to end (calendar -> plan -> migrate -> assess)\n")
	fmt.Fprintf(&b, "  %d upgrade events, mean recovery %.1f%%, mean burst reduction %.1fx, impact downgraded for %d events\n",
		len(o.Events), 100*o.MeanRecovery, o.BurstReduction, o.Downgraded)
	fmt.Fprintf(&b, "  %4s %9s %6s %9s %12s %14s %12s\n",
		"day", "weekday", "sector", "recovery", "burst(grad)", "burst(1shot)", "impact")
	for _, e := range o.Events {
		fmt.Fprintf(&b, "  %4d %9s %6d %8.1f%% %12.0f %14.0f %5s->%s\n",
			e.Calendar.Day, e.Calendar.Weekday, e.Target, 100*e.Recovery,
			e.BurstMitigated, e.BurstOneShot, e.WorstUnmitigated, e.WorstMitigated)
	}
	return b.String()
}
