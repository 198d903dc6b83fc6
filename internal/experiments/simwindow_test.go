package experiments

import (
	"strings"
	"testing"
)

func TestRunSimWindow(t *testing.T) {
	res, err := RunSimWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 6 {
		t.Fatalf("runs = %d, want 3 strategies x 2 conditions", len(res.Runs))
	}
	grad := res.Run(StrategyGradual, false)
	one := res.Run(StrategyOneShot, false)
	react := res.Run(StrategyReactive, false)
	if grad == nil || one == nil || react == nil {
		t.Fatal("missing clean runs")
	}

	// The paper's gradual-migration claim as a time-series measurement:
	// the worst per-tick handover wave under the Magus runbook stays
	// strictly below the one-shot reconfiguration's synchronized wave.
	if grad.Summary.MaxTickHandovers >= one.Summary.MaxTickHandovers {
		t.Errorf("gradual max handovers/tick %.0f not below one-shot %.0f",
			grad.Summary.MaxTickHandovers, one.Summary.MaxTickHandovers)
	}
	if one.Summary.PushesApplied != 1 {
		t.Errorf("one-shot applied %d pushes, want 1", one.Summary.PushesApplied)
	}
	if !grad.Summary.EndsAboveFloor {
		t.Error("clean gradual window ends below the f(C_after) floor")
	}
	// The reactive strategy drops the targets before tuning, so its
	// window spends ticks below its own final-configuration floor while
	// the feedback climb is still running; Magus pre-compensates.
	if react.Summary.TicksBelowFloor <= grad.Summary.TicksBelowFloor {
		t.Errorf("reactive below-floor ticks %d not above gradual %d",
			react.Summary.TicksBelowFloor, grad.Summary.TicksBelowFloor)
	}

	// Faulted condition: the script actually fires, and the gradual
	// strategy's replanner hook is the only one armed.
	for _, strategy := range []string{StrategyGradual, StrategyOneShot, StrategyReactive} {
		r := res.Run(strategy, true)
		if r == nil {
			t.Fatalf("missing faulted %s run", strategy)
		}
		if r.Summary.FaultsInjected == 0 {
			t.Errorf("faulted %s run injected no faults", strategy)
		}
		if strategy != StrategyGradual && r.Summary.Replans != 0 {
			t.Errorf("%s run replanned %d times without a replanner", strategy, r.Summary.Replans)
		}
	}

	out := res.String()
	for _, want := range []string{StrategyGradual, StrategyOneShot, StrategyReactive, "faulted"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment output missing %q\n%s", want, out)
		}
	}
}
