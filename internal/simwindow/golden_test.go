package simwindow_test

import (
	"math"
	"reflect"
	"testing"

	"magus/internal/schedule"
	"magus/internal/simwindow"
)

// TestGoldenIncrementalVsFullScan is the golden-window contract for the
// incremental KPI engine: a fault-heavy scripted window — delayed
// pushes, a mid-migration surge, a post-migration sector failure and a
// replan — measured by the default incremental path must reproduce the
// retained full-scan reference series tick for tick. Handovers, load
// factors, push counts and events are exact (the incremental handover
// sum is grouped by the same fixed shard ranges as the reference scan);
// utility, floor, max-load and below-floor values agree within 1e-9
// relative, the bound set by summation-order differences between the
// ±repaired aggregates and the from-scratch scans.
func TestGoldenIncrementalVsFullScan(t *testing.T) {
	_, plan, grad, _ := fixture(t)

	victim, bestLoad := -1, -1.0
	for _, b := range grad.TunedSectors {
		if l := plan.After.Load(b); l > bestLoad {
			victim, bestLoad = b, l
		}
	}
	if victim < 0 {
		t.Fatalf("runbook tunes no sectors")
	}
	faultTick := len(grad.Steps) + 5
	faults, err := simwindow.ParseFaults(
		"push-delay@2+3" +
			", surge@10+8:" + itoa(grad.Targets[0]) + ":x1.8" +
			", sector-down@" + itoa(faultTick) + ":" + itoa(victim))
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	cfg := simwindow.Config{
		Seed:    11,
		Ticks:   faultTick + 45,
		Faults:  faults,
		Replan:  true,
		Workers: 2,
	}

	ref := runWith(t, simwindow.NewFullScan, grad, cfg)
	inc := run(t, grad, cfg)

	if ref.Summary.Replans == 0 {
		t.Fatalf("sector %d down (load %.1f) never triggered a replan; storm too weak: %+v",
			victim, bestLoad, ref.Summary)
	}
	if ref.Summary.PushesDelayed != 1 || ref.Summary.FaultsInjected < 2 {
		t.Fatalf("fault storm not exercised: %+v", ref.Summary)
	}
	if len(inc.Series) != len(ref.Series) {
		t.Fatalf("series lengths differ: incremental %d vs full-scan %d",
			len(inc.Series), len(ref.Series))
	}

	for i := range ref.Series {
		r, c := ref.Series[i], inc.Series[i]
		if c.Tick != r.Tick || c.HourOfDay != r.HourOfDay || c.LoadFactor != r.LoadFactor {
			t.Fatalf("tick %d: clock/load diverged: %+v vs %+v", i, c, r)
		}
		if c.Handovers != r.Handovers {
			t.Fatalf("tick %d: handovers not bit-identical: %v vs %v (diff %g)",
				i, c.Handovers, r.Handovers, c.Handovers-r.Handovers)
		}
		if c.PushedChanges != r.PushedChanges || !reflect.DeepEqual(c.Events, r.Events) {
			t.Fatalf("tick %d: push/event stream diverged:\nincremental: %d %v\nreference:   %d %v",
				i, c.PushedChanges, c.Events, r.PushedChanges, r.Events)
		}
		for _, v := range []struct {
			name     string
			got, ref float64
		}{
			{"utility", c.Utility, r.Utility},
			{"floor", c.FloorUtility, r.FloorUtility},
			{"max-load", c.MaxSectorLoad, r.MaxSectorLoad},
			{"below-floor", c.UsersBelowFloor, r.UsersBelowFloor},
		} {
			if diff := math.Abs(v.got - v.ref); diff > 1e-9*(1+math.Abs(v.ref)) {
				t.Fatalf("tick %d: %s drifted beyond 1e-9 relative: %.12f vs %.12f",
					i, v.name, v.got, v.ref)
			}
		}
	}

	if inc.Summary.Replans != ref.Summary.Replans ||
		inc.Summary.PushesApplied != ref.Summary.PushesApplied ||
		inc.Summary.TicksBelowFloor != ref.Summary.TicksBelowFloor {
		t.Fatalf("summaries diverged:\nincremental: %+v\nreference:   %+v", inc.Summary, ref.Summary)
	}
}

// TestGoldenLongWindowResync pushes a window past the aggregate resync
// cadence with diurnal load and noise, so the periodic rebuild and the
// drift bound are both exercised against the reference.
func TestGoldenLongWindowResync(t *testing.T) {
	_, _, grad, _ := fixture(t)
	profile := schedule.DefaultProfile()
	cfg := simwindow.Config{
		Seed:      5,
		Ticks:     150, // > 2 resync periods
		Profile:   &profile,
		LoadNoise: 0.05,
		Workers:   2,
	}
	ref := runWith(t, simwindow.NewFullScan, grad, cfg)
	inc := run(t, grad, cfg)
	if len(inc.Series) != len(ref.Series) {
		t.Fatalf("series lengths differ: %d vs %d", len(inc.Series), len(ref.Series))
	}
	for i := range ref.Series {
		r, c := ref.Series[i], inc.Series[i]
		if c.Handovers != r.Handovers || c.LoadFactor != r.LoadFactor {
			t.Fatalf("tick %d: exact series diverged: %+v vs %+v", i, c, r)
		}
		if diff := math.Abs(c.Utility - r.Utility); diff > 1e-9*(1+math.Abs(r.Utility)) {
			t.Fatalf("tick %d: utility drift %g beyond bound (%.12f vs %.12f)",
				i, diff, c.Utility, r.Utility)
		}
		if diff := math.Abs(c.UsersBelowFloor - r.UsersBelowFloor); diff > 1e-9*(1+math.Abs(r.UsersBelowFloor)) {
			t.Fatalf("tick %d: below-floor drift %g beyond bound", i, diff)
		}
	}
}
