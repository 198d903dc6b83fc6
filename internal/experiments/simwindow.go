package experiments

import (
	"fmt"
	"strings"

	"magus/internal/campaign"
	"magus/internal/config"
	"magus/internal/core"
	"magus/internal/feedback"
	"magus/internal/migrate"
	"magus/internal/runbook"
	"magus/internal/schedule"
	"magus/internal/simwindow"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// Strategy names for the upgrade-window comparison.
const (
	StrategyGradual  = "magus-gradual"
	StrategyOneShot  = "one-shot"
	StrategyReactive = "reactive-feedback"
)

// SimWindowRun is one (strategy, fault condition) execution of the
// upgrade window through the discrete-event simulator.
type SimWindowRun struct {
	// Strategy is StrategyGradual, StrategyOneShot or StrategyReactive.
	Strategy string
	// Faulted marks the run that injects the mid-window fault script
	// (compensating neighbor down plus a load surge).
	Faulted bool
	// Steps is the runbook length the strategy pushed.
	Steps int
	// Summary is the simulator's window accounting.
	Summary simwindow.Summary
}

// SimWindow reproduces the paper's gradual-migration claim as a
// disruption-over-time measurement (Section 6): executing the same
// planned upgrade through the upgrade-window simulator, the Magus
// gradual runbook spreads user migration across pushes — its maximum
// per-tick handover volume stays strictly below the one-shot
// reconfiguration's synchronized wave — while the reactive feedback
// baseline only starts fixing utility after the window has already
// degraded. Each strategy also runs against a fault script to measure
// robustness when reality deviates from the model.
type SimWindow struct {
	// Seed is the market seed.
	Seed int64
	// Runs holds every (strategy, condition) execution.
	Runs []SimWindowRun
	// Ticks is the shared window length; FaultTick when the neighbor
	// fails in the faulted condition.
	Ticks     int
	FaultTick int
}

// Run returns the run for a strategy and condition, or nil.
func (s *SimWindow) Run(strategy string, faulted bool) *SimWindowRun {
	for i := range s.Runs {
		if s.Runs[i].Strategy == strategy && s.Runs[i].Faulted == faulted {
			return &s.Runs[i]
		}
	}
	return nil
}

// reactiveRunbook replays a reactive feedback climb as a push sequence:
// the targets go off-air first (that is the strategy — planned work
// starts immediately, tuning reacts afterwards), then each committed
// feedback move becomes one push.
func reactiveRunbook(plan *core.Plan, fb *feedback.Result) *runbook.Runbook {
	rb := &runbook.Runbook{
		Title:           "Reactive feedback baseline (replayed)",
		Scenario:        plan.Scenario.String(),
		Method:          StrategyReactive,
		Objective:       plan.Util.Name,
		Targets:         append([]int(nil), plan.Targets...),
		ExpectedBefore:  plan.UtilityBefore,
		ExpectedUpgrade: plan.UtilityUpgrade,
		ExpectedAfter:   fb.FinalUtility,
		UtilityFloor:    fb.FinalUtility,
		StepIntervalSec: feedback.DefaultMeasurementIntervalSec,
	}
	off := make([]config.Change, 0, len(plan.Targets))
	for _, tg := range plan.Targets {
		off = append(off, config.Change{Sector: tg, TurnOff: true})
	}
	rb.Steps = append(rb.Steps, runbook.Step{
		Index:           1,
		Kind:            runbook.KindOffAir,
		Changes:         off,
		ExpectedUtility: plan.UtilityUpgrade,
		Note:            "reactive strategy: targets drop before any tuning",
	})
	for i, mv := range fb.Moves {
		rb.Steps = append(rb.Steps, runbook.Step{
			Index:           i + 2,
			Kind:            runbook.KindMigration,
			Changes:         []config.Change{mv},
			ExpectedUtility: fb.UtilityTimeline[i+1],
		})
	}
	return rb
}

// RunSimWindow executes the three migration strategies for a suburban
// scenario-(a) upgrade through the upgrade-window simulator, clean and
// under the fault script.
func RunSimWindow(env *campaign.Env, seed int64) (*SimWindow, error) {
	engine, err := env.Build(seed, campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		return nil, fmt.Errorf("simwindow experiment: %w", err)
	}
	plan, err := engine.Mitigate(upgrade.SingleSector, core.PowerOnly, utility.Performance)
	if err != nil {
		return nil, fmt.Errorf("simwindow experiment: %w", err)
	}

	grad, err := plan.GradualMigration(migrate.Options{})
	if err != nil {
		return nil, fmt.Errorf("simwindow experiment: %w", err)
	}
	gradRB, err := runbook.Build(plan, grad)
	if err != nil {
		return nil, fmt.Errorf("simwindow experiment: %w", err)
	}
	one, err := plan.OneShotMigration(migrate.Options{})
	if err != nil {
		return nil, fmt.Errorf("simwindow experiment: %w", err)
	}
	oneRB, err := runbook.Build(plan, one)
	if err != nil {
		return nil, fmt.Errorf("simwindow experiment: %w", err)
	}
	fb, err := plan.ReactiveBaseline(feedback.Idealized, feedback.Options{IncludeTilt: true})
	if err != nil {
		return nil, fmt.Errorf("simwindow experiment: %w", err)
	}
	reactRB := reactiveRunbook(plan, fb)

	// Shared window: long enough for the slowest strategy to finish
	// pushing and settle; the fault lands after every push completed, so
	// the faulted runs measure pure mid-window robustness.
	longest := len(gradRB.Steps)
	if n := len(reactRB.Steps); n > longest {
		longest = n
	}
	out := &SimWindow{Seed: seed, Ticks: longest + 40, FaultTick: longest + 5}

	// The faulted condition downs the most-loaded neighbor under
	// C_after: the sector carrying the largest share of the users the
	// upgrade re-homed.
	victim, bestLoad := -1, -1.0
	for _, b := range plan.Neighbors {
		if l := plan.After.Load(b); l > bestLoad {
			victim, bestLoad = b, l
		}
	}
	if victim < 0 {
		return nil, fmt.Errorf("simwindow experiment: no neighbor sectors")
	}
	profile := schedule.DefaultProfile()
	faults := []simwindow.Fault{
		{Kind: simwindow.FaultSectorDown, Tick: out.FaultTick, Sector: victim},
		{Kind: simwindow.FaultLoadSurge, Tick: out.FaultTick + 3,
			DurationTicks: 10, Sector: plan.Targets[0], Factor: 1.5},
	}

	strategies := []struct {
		name string
		rb   *runbook.Runbook
	}{
		{StrategyGradual, gradRB},
		{StrategyOneShot, oneRB},
		{StrategyReactive, reactRB},
	}
	for _, st := range strategies {
		name, rb := st.name, st.rb
		for _, faulted := range []bool{false, true} {
			cfg := simwindow.Config{
				Seed:      seed,
				Ticks:     out.Ticks,
				Profile:   &profile,
				LoadNoise: 0.02,
			}
			if faulted {
				cfg.Faults = faults
				// Magus's full loop: the planner also watches the window
				// and splices corrections when the floor breaks.
				cfg.Replan = name == StrategyGradual
			}
			sim, err := simwindow.New(engine.Before, rb, cfg)
			if err != nil {
				return nil, fmt.Errorf("simwindow experiment (%s): %w", name, err)
			}
			res, err := sim.Run()
			if err != nil {
				return nil, fmt.Errorf("simwindow experiment (%s): %w", name, err)
			}
			out.Runs = append(out.Runs, SimWindowRun{
				Strategy: name,
				Faulted:  faulted,
				Steps:    len(rb.Steps),
				Summary:  res.Summary,
			})
		}
	}
	return out, nil
}

// String prints the strategy comparison as a table.
func (s *SimWindow) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Upgrade-window simulation: disruption over time by migration strategy (seed %d, %d ticks)\n",
		s.Seed, s.Ticks)
	fmt.Fprintf(&b, "  %-18s %-7s %6s %9s %9s %11s %11s %8s %7s\n",
		"strategy", "faults", "pushes", "maxHO/tick", "totalHO", "finalUtil", "floor", "below", "replans")
	for _, r := range s.Runs {
		cond := "clean"
		if r.Faulted {
			cond = "faulted"
		}
		fmt.Fprintf(&b, "  %-18s %-7s %6d %9.0f %9.0f %11.1f %11.1f %8d %7d\n",
			r.Strategy, cond, r.Summary.PushesApplied, r.Summary.MaxTickHandovers,
			r.Summary.TotalHandovers, r.Summary.FinalUtility, r.Summary.FinalFloor,
			r.Summary.TicksBelowFloor, r.Summary.Replans)
	}
	g, o := s.Run(StrategyGradual, false), s.Run(StrategyOneShot, false)
	if g != nil && o != nil && o.Summary.MaxTickHandovers > 0 {
		fmt.Fprintf(&b, "  gradual migration cuts the worst per-tick handover wave by %.1fx vs one-shot\n",
			o.Summary.MaxTickHandovers/g.Summary.MaxTickHandovers)
	}
	return b.String()
}
