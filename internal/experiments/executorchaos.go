package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"magus/internal/campaign"
	"magus/internal/chaos"
	"magus/internal/core"
	"magus/internal/executor"
	"magus/internal/migrate"
	"magus/internal/runbook"
	"magus/internal/simwindow"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// ExecutorChaosRun is one guarded execution of the runbook under a
// generated fault rate.
type ExecutorChaosRun struct {
	// Rate is the per-step probability fed to all three generated fault
	// kinds (push-error, push-delay, kpi-loss).
	Rate float64
	// Injected is how many chaos faults actually fired.
	Injected int
	// State is the executor's terminal run state.
	State string
	// Halted and RolledBack report the guard tripping and recovering.
	Halted     bool
	RolledBack bool
	// Retries counts push retries the executor spent absorbing faults.
	Retries int
	// Samples, SamplesLost and SamplesBelowFloor are the KPI watchdog's
	// accounting; SamplesBelowFloor is the run's utility-floor exposure.
	Samples           int
	SamplesLost       int
	SamplesBelowFloor int
	// FinalUtility and FinalFloor are the last KPI sample taken.
	FinalUtility float64
	FinalFloor   float64
	// Ns is the run's wall clock.
	Ns int64
}

// ExecutorChaos measures the guarded runbook executor's robustness: the
// same planned gradual upgrade executed end to end at increasing
// injected fault rates. The claim under test is the protocol's, not the
// plan's — with retries and in-doubt resolution the executor absorbs
// delivery faults (delays, errors, lost KPI reports) and still commits
// every step exactly once, and its utility-floor exposure (samples
// observed below f(C_after)) stays flat as the fault rate grows.
type ExecutorChaos struct {
	Seed  int64
	Steps int
	Runs  []ExecutorChaosRun
}

// executorChaosRates are the per-step fault probabilities swept.
var executorChaosRates = []float64{0, 0.25, 0.5}

// RunExecutorChaos executes the suburban scenario-(a) gradual runbook
// through the guarded executor at each fault rate, on a fresh simulated
// network per rate. Deterministic for a fixed seed: the market, the
// plan, the generated faults and the executor's retry jitter all derive
// from it.
func RunExecutorChaos(env *campaign.Env, seed int64) (*ExecutorChaos, error) {
	engine, err := env.Build(seed, campaign.MiniAreaSpec(topology.Suburban))
	if err != nil {
		return nil, fmt.Errorf("executor-chaos experiment: %w", err)
	}
	plan, err := engine.Mitigate(upgrade.SingleSector, core.Joint, utility.Performance)
	if err != nil {
		return nil, fmt.Errorf("executor-chaos experiment: %w", err)
	}
	mig, err := plan.GradualMigration(migrate.Options{})
	if err != nil {
		return nil, fmt.Errorf("executor-chaos experiment: %w", err)
	}
	rb, err := runbook.Build(plan, mig)
	if err != nil {
		return nil, fmt.Errorf("executor-chaos experiment: %w", err)
	}

	out := &ExecutorChaos{Seed: seed, Steps: len(rb.Steps)}
	for _, rate := range executorChaosRates {
		fp := chaos.Generate(seed, len(rb.Steps), chaos.Rates{
			PushError: rate,
			PushDelay: rate,
			KPILoss:   rate,
			Delay:     time.Millisecond,
		})
		net, err := executor.NewSimNetwork(engine.Before, rb, simwindow.Config{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("executor-chaos experiment (rate %.2f): %w", rate, err)
		}
		cnet := fp.Instrument(net)
		ex, err := executor.New(cnet, rb, executor.Options{
			// Tiny backoffs so wall clock measures the protocol, not
			// the sleeps; the deadline stays generous for -race CI.
			StepDeadline: 10 * time.Second,
			Retries:      4,
			RetryBackoff: time.Millisecond,
			MaxBackoff:   4 * time.Millisecond,
			Seed:         seed,
			CrashHook:    cnet.Hook(),
		})
		if err != nil {
			return nil, fmt.Errorf("executor-chaos experiment (rate %.2f): %w", rate, err)
		}
		start := time.Now()
		st, err := ex.Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("executor-chaos experiment (rate %.2f): %w", rate, err)
		}
		out.Runs = append(out.Runs, ExecutorChaosRun{
			Rate:              rate,
			Injected:          cnet.Injected(),
			State:             st.State,
			Halted:            st.Halted,
			RolledBack:        st.RolledBack,
			Retries:           st.Retries,
			Samples:           st.Samples,
			SamplesLost:       st.SamplesLost,
			SamplesBelowFloor: st.SamplesBelowFloor,
			FinalUtility:      st.FinalUtility,
			FinalFloor:        st.FinalFloor,
			Ns:                time.Since(start).Nanoseconds(),
		})
	}
	return out, nil
}

// String prints the fault-rate sweep as a table.
func (e *ExecutorChaos) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Guarded executor under chaos: %d-step gradual runbook, suburban mini market (seed %d)\n",
		e.Steps, e.Seed)
	fmt.Fprintf(&b, "  %-6s %9s %-12s %8s %8s %6s %11s %11s %9s\n",
		"rate", "injected", "state", "retries", "samples", "lost", "belowFloor", "finalUtil", "ms")
	for _, r := range e.Runs {
		fmt.Fprintf(&b, "  %-6.2f %9d %-12s %8d %8d %6d %11d %11.1f %9.1f\n",
			r.Rate, r.Injected, r.State, r.Retries, r.Samples, r.SamplesLost,
			r.SamplesBelowFloor, r.FinalUtility, float64(r.Ns)/1e6)
	}
	clean := e.Runs[0]
	worst := e.Runs[len(e.Runs)-1]
	if !worst.Halted {
		fmt.Fprintf(&b, "  every rate completed: %d retries absorbed %d injected faults with %+d below-floor samples vs clean\n",
			worst.Retries, worst.Injected, worst.SamplesBelowFloor-clean.SamplesBelowFloor)
	}
	return b.String()
}

// Timings exports one record per fault rate, plus the below-floor
// exposure at the highest rate (the number the robustness claim is
// about) so the JSON archive preserves it.
func (e *ExecutorChaos) Timings() []BenchTiming {
	out := make([]BenchTiming, 0, len(e.Runs)+1)
	for _, r := range e.Runs {
		out = append(out, BenchTiming{
			Name:       fmt.Sprintf("rate-%.2f", r.Rate),
			Iterations: 1,
			NsPerOp:    r.Ns,
		})
	}
	worst := e.Runs[len(e.Runs)-1]
	out = append(out, BenchTiming{
		Name:       "below-floor-samples-worst",
		Iterations: 1,
		NsPerOp:    int64(worst.SamplesBelowFloor),
	})
	return out
}
