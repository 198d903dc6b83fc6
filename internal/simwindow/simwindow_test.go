package simwindow_test

import (
	"math"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"magus/internal/core"
	"magus/internal/migrate"
	"magus/internal/netmodel"
	"magus/internal/runbook"
	"magus/internal/schedule"
	"magus/internal/simwindow"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// The fixture plans one suburban single-sector upgrade and builds its
// gradual and one-shot runbooks. Engine construction dominates test
// time, so every test shares it; simulators fork the model and never
// mutate the fixture.
var fix struct {
	once sync.Once
	err  error
	eng  *core.Engine
	plan *core.Plan
	grad *runbook.Runbook
	one  *runbook.Runbook
}

func fixture(t testing.TB) (*core.Engine, *core.Plan, *runbook.Runbook, *runbook.Runbook) {
	t.Helper()
	fix.once.Do(func() {
		eng, err := core.NewEngine(core.SetupConfig{
			Seed:          3,
			Class:         topology.Suburban,
			RegionSpanM:   6000,
			CellSizeM:     200,
			EqualizeSteps: 200,
		})
		if err != nil {
			fix.err = err
			return
		}
		plan, err := eng.Mitigate(upgrade.SingleSector, core.PowerOnly, utility.Performance)
		if err != nil {
			fix.err = err
			return
		}
		mig, err := plan.GradualMigration(migrate.Options{})
		if err != nil {
			fix.err = err
			return
		}
		grad, err := runbook.Build(plan, mig)
		if err != nil {
			fix.err = err
			return
		}
		oneMig, err := plan.OneShotMigration(migrate.Options{})
		if err != nil {
			fix.err = err
			return
		}
		one, err := runbook.Build(plan, oneMig)
		if err != nil {
			fix.err = err
			return
		}
		fix.eng, fix.plan, fix.grad, fix.one = eng, plan, grad, one
	})
	if fix.err != nil {
		t.Fatalf("fixture: %v", fix.err)
	}
	return fix.eng, fix.plan, fix.grad, fix.one
}

func run(t *testing.T, rb *runbook.Runbook, cfg simwindow.Config) *simwindow.Outcome {
	t.Helper()
	return runWith(t, simwindow.New, rb, cfg)
}

// runWith simulates rb from the fixture's C_before with a Simulator
// built by newSim (New, or the NewFullScan reference).
func runWith(t *testing.T, newSim func(*netmodel.State, *runbook.Runbook, simwindow.Config) (*simwindow.Simulator, error),
	rb *runbook.Runbook, cfg simwindow.Config) *simwindow.Outcome {
	t.Helper()
	eng, _, _, _ := fixture(t)
	sim, err := newSim(eng.Before, rb, cfg)
	if err != nil {
		t.Fatalf("constructing simulator: %v", err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out
}

// TestSimDeterminism is the bit-determinism contract: two simulations
// of the same (scenario, seed, fault script) — with diurnal load,
// noise, faults of every kind, and a parallel replanner — produce
// identical time series. CI runs this test twice (-count=2) so the
// contract also holds across processes.
func TestSimDeterminism(t *testing.T) {
	_, _, grad, _ := fixture(t)
	profile := schedule.DefaultProfile()
	mkCfg := func() simwindow.Config {
		faults, err := simwindow.ParseFaults(
			"push-delay@2+3, push-fail@3, sector-down@25:" + itoa(grad.TunedSectors[0]) +
				", surge@10+8:" + itoa(grad.Targets[0]) + ":x1.8")
		if err != nil {
			t.Fatalf("ParseFaults: %v", err)
		}
		return simwindow.Config{
			Seed:      42,
			Ticks:     60,
			Profile:   &profile,
			LoadNoise: 0.05,
			Faults:    faults,
			Replan:    true,
			Workers:   2,
		}
	}
	a := run(t, grad, mkCfg())
	b := run(t, grad, mkCfg())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identically-seeded runs diverged:\nrun A: %+v\nrun B: %+v", a.Summary, b.Summary)
	}
	if a.Summary.FaultsInjected == 0 || a.Summary.PushesDropped != 1 || a.Summary.PushesDelayed != 1 {
		t.Fatalf("fault script not exercised: %+v", a.Summary)
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

// TestReplanRecovery is the acceptance scenario for the replanner: the
// plan's biggest compensating neighbor fails after the migration
// completes, utility falls below the f(C_after) floor, and the
// replanner's corrective pushes must (a) keep the replanned run at or
// above the no-replan run on every tick after recovery starts and (b)
// end the window at or above the floor.
func TestReplanRecovery(t *testing.T) {
	_, plan, grad, _ := fixture(t)

	// The compensating neighbor whose loss hurts most: the tuned sector
	// carrying the highest load under C_after.
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
	base := simwindow.Config{
		Seed:  7,
		Ticks: faultTick + 45,
		Faults: []simwindow.Fault{
			{Kind: simwindow.FaultSectorDown, Tick: faultTick, Sector: victim},
		},
	}
	noReplan := run(t, grad, base)

	withCfg := base
	// The replanner's climbs accept only individually
	// utility-improving steps — the property the per-tick comparison
	// below relies on.
	withCfg.Replan = true
	withReplan := run(t, grad, withCfg)

	if withReplan.Summary.Replans == 0 {
		t.Fatalf("sector %d going down (load %.1f) never breached the floor: %+v",
			victim, bestLoad, withReplan.Summary)
	}

	// Identical histories until the first corrective push lands.
	for i := 0; i <= faultTick; i++ {
		if withReplan.Series[i].Utility != noReplan.Series[i].Utility {
			t.Fatalf("tick %d: runs diverged before any replan push (%.6f vs %.6f)",
				i, withReplan.Series[i].Utility, noReplan.Series[i].Utility)
		}
	}

	// Recovery: from the first tick the replanned run regains the floor,
	// it must dominate the no-replan run and stay recovered.
	recovered := -1
	for i := faultTick + 1; i < len(withReplan.Series); i++ {
		tk := withReplan.Series[i]
		if tk.Utility >= tk.FloorUtility-1e-9*(1+math.Abs(tk.FloorUtility)) {
			recovered = i
			break
		}
	}
	if recovered < 0 {
		t.Fatalf("replanned run never regained the floor: %+v", withReplan.Summary)
	}
	for i := recovered; i < len(withReplan.Series); i++ {
		uw, un := withReplan.Series[i].Utility, noReplan.Series[i].Utility
		if uw < un-1e-9*(1+math.Abs(un)) {
			t.Fatalf("tick %d: replanned utility %.6f below no-replan %.6f", i, uw, un)
		}
	}
	if !withReplan.Summary.EndsAboveFloor {
		t.Fatalf("replanned run ends below floor: final %.6f vs floor %.6f",
			withReplan.Summary.FinalUtility, withReplan.Summary.FinalFloor)
	}
	if noReplan.Summary.EndsAboveFloor {
		t.Fatalf("no-replan run recovered on its own; the fault is too weak to test replanning")
	}
}

// TestGradualSmootherThanOneShot checks the migration claim on the
// simulated timeline: the gradual runbook's largest per-tick handover
// burst is strictly smaller than the one-shot reconfiguration's.
func TestGradualSmootherThanOneShot(t *testing.T) {
	_, _, grad, one := fixture(t)
	cfg := simwindow.Config{Seed: 1, Ticks: len(grad.Steps) + 10}
	gradOut := run(t, grad, cfg)
	oneOut := run(t, one, cfg)
	if gradOut.Summary.MaxTickHandovers >= oneOut.Summary.MaxTickHandovers {
		t.Fatalf("gradual max burst %.1f not below one-shot %.1f",
			gradOut.Summary.MaxTickHandovers, oneOut.Summary.MaxTickHandovers)
	}
	if oneOut.Summary.PushesApplied != 1 {
		t.Fatalf("one-shot runbook applied %d pushes, want 1", oneOut.Summary.PushesApplied)
	}
}

// TestPushFaults verifies the push fault semantics: a lost push leaves
// the window short of C_after, a delayed push shifts the schedule but
// converges to the same final configuration.
func TestPushFaults(t *testing.T) {
	_, _, grad, _ := fixture(t)
	clean := run(t, grad, simwindow.Config{Seed: 1})

	// Drop a step that carries a compensating (non-target) change:
	// target power deltas before the off-air push don't survive into the
	// final configuration, so losing one of those would be invisible at
	// the end of the window.
	targetSet := map[int]bool{}
	for _, tg := range grad.Targets {
		targetSet[tg] = true
	}
	dropStep := -1
	for _, st := range grad.Steps {
		for _, ch := range st.Changes {
			if !targetSet[ch.Sector] {
				dropStep = st.Index
				break
			}
		}
		if dropStep >= 0 {
			break
		}
	}
	if dropStep < 0 {
		t.Fatalf("runbook has no compensating changes to drop")
	}

	lost := run(t, grad, simwindow.Config{
		Seed:   1,
		Faults: []simwindow.Fault{{Kind: simwindow.FaultPushFail, Step: dropStep}},
	})
	if lost.Summary.PushesDropped != 1 || lost.Summary.PushesApplied != len(grad.Steps)-1 {
		t.Fatalf("push-fail: %+v", lost.Summary)
	}
	if lost.Summary.FinalUtility >= clean.Summary.FinalUtility {
		t.Fatalf("losing a push did not hurt: %.6f >= %.6f",
			lost.Summary.FinalUtility, clean.Summary.FinalUtility)
	}

	delayed := run(t, grad, simwindow.Config{
		Seed:   1,
		Faults: []simwindow.Fault{{Kind: simwindow.FaultPushDelay, Step: 2, DelayTicks: 4}},
	})
	if delayed.Summary.PushesDelayed != 1 || delayed.Summary.PushesApplied != len(grad.Steps) {
		t.Fatalf("push-delay: %+v", delayed.Summary)
	}
	if math.Abs(delayed.Summary.FinalUtility-clean.Summary.FinalUtility) > 1e-9 {
		t.Fatalf("delayed run should converge to the clean final utility: %.9f vs %.9f",
			delayed.Summary.FinalUtility, clean.Summary.FinalUtility)
	}
}

// TestFloorTracksLoad: under a diurnal profile the floor is evaluated
// at the tick's load, so it must move with the load factor rather than
// stay at the planning-time constant.
func TestFloorTracksLoad(t *testing.T) {
	_, _, grad, _ := fixture(t)
	profile := schedule.DefaultProfile()
	out := run(t, grad, simwindow.Config{Seed: 1, Ticks: 120, Profile: &profile, StartHour: 4})
	first, last := out.Series[0], out.Series[len(out.Series)-1]
	if first.LoadFactor == last.LoadFactor {
		t.Fatalf("load factor never moved (%.3f)", first.LoadFactor)
	}
	if first.FloorUtility == last.FloorUtility {
		t.Fatalf("floor did not track load: %.6f at both ends", first.FloorUtility)
	}
}

// TestFlatRunEndsAtRunbookFloor pins the chain from plan to window:
// under constant load with no faults or noise, the runbook's pushes end
// at C_after, so the last tick reads the runbook's UtilityFloor,
// f(C_after), within BelowFloor's tie band, for the live utility and
// the floor alike.
func TestFlatRunEndsAtRunbookFloor(t *testing.T) {
	_, _, grad, one := fixture(t)
	for name, rb := range map[string]*runbook.Runbook{"gradual": grad, "one-shot": one} {
		out := run(t, rb, simwindow.Config{Seed: 1})
		last := out.Series[len(out.Series)-1]
		for field, got := range map[string]float64{"utility": last.Utility, "floor": last.FloorUtility} {
			if !atFloor(got, rb.UtilityFloor) {
				t.Errorf("%s: last tick %s %.12g, runbook floor %.12g", name, field, got, rb.UtilityFloor)
			}
		}
	}
}

// atFloor reports u and floor equal within BelowFloor's tie band.
func atFloor(u, floor float64) bool {
	return !simwindow.BelowFloor(u, floor) && !simwindow.BelowFloor(floor, u)
}

// TestWatchdog pins the one floor-breach rule: a zero limit never
// trips, limit K trips exactly at the K-th consecutive below-floor
// sample, and a sample at the floor (ties within BelowFloor's 1e-9
// relative band included) resets the streak.
func TestWatchdog(t *testing.T) {
	const floor = 100.0
	below, at := floor-1, floor
	tie := floor - 0.5e-9*(1+floor) // inside the band: at the floor
	cases := []struct {
		name    string
		limit   int
		samples []float64
		tripAt  int // index of the first tripping sample; -1 never
		streak  int // streak after the last sample
	}{
		{"limit 0 never trips", 0, []float64{below, below, below, below, below}, -1, 5},
		{"limit 1", 1, []float64{at, below}, 1, 1},
		{"limit 3 at the third", 3, []float64{below, below, below, below}, 2, 4},
		{"at floor resets", 3, []float64{below, below, at, below, below, below}, 5, 3},
		{"tie resets", 3, []float64{below, below, tie, below, below}, -1, 2},
		{"above floor resets", 2, []float64{below, floor + 1, below, below}, 3, 2},
	}
	for _, c := range cases {
		w := simwindow.Watchdog{Limit: c.limit}
		first := -1
		for i, u := range c.samples {
			isBelow, tripped := w.Observe(u, floor)
			if isBelow != simwindow.BelowFloor(u, floor) {
				t.Errorf("%s: sample %d: below = %v, BelowFloor disagrees", c.name, i, isBelow)
			}
			if tripped && first < 0 {
				first = i
			}
			if tripped && !isBelow {
				t.Errorf("%s: sample %d tripped while at the floor", c.name, i)
			}
		}
		if first != c.tripAt {
			t.Errorf("%s: first trip at sample %d, want %d", c.name, first, c.tripAt)
		}
		if w.Streak != c.streak {
			t.Errorf("%s: streak %d, want %d", c.name, w.Streak, c.streak)
		}
	}
	if simwindow.BelowFloor(tie, floor) {
		t.Fatalf("tie %.12f counts as below floor %.1f", tie, floor)
	}
}

// TestHaltAtThirdBelowTick: with HaltAfterBelowTicks 3 the run halts
// on the third consecutive below-floor tick and the series ends there,
// identical to the unhalted run up to that tick.
func TestHaltAtThirdBelowTick(t *testing.T) {
	_, _, grad, _ := fixture(t)
	// Every compensating neighbor fails once the migration is done.
	faultTick := len(grad.Steps) + 3
	var faults []simwindow.Fault
	for _, b := range grad.TunedSectors {
		faults = append(faults, simwindow.Fault{Kind: simwindow.FaultSectorDown, Tick: faultTick, Sector: b})
	}
	base := simwindow.Config{Seed: 3, Ticks: faultTick + 20, Faults: faults}
	free := run(t, grad, base)
	want, streak := -1, 0
	for i, tk := range free.Series {
		if simwindow.BelowFloor(tk.Utility, tk.FloorUtility) {
			streak++
		} else {
			streak = 0
		}
		if streak == 3 {
			want = i
			break
		}
	}
	if want < 0 {
		t.Fatalf("unhalted run never sat below the floor for 3 ticks: %+v", free.Summary)
	}
	halting := base
	halting.HaltAfterBelowTicks = 3
	out := run(t, grad, halting)
	if !out.Summary.Halted || out.Summary.HaltTick != want {
		t.Fatalf("halted=%v at tick %d, want halt at tick %d", out.Summary.Halted, out.Summary.HaltTick, want)
	}
	if len(out.Series) != want+1 || out.Summary.Ticks != want+1 {
		t.Fatalf("series has %d ticks (summary %d), want %d", len(out.Series), out.Summary.Ticks, want+1)
	}
	for i, tk := range out.Series[:want] {
		if tk.Utility != free.Series[i].Utility {
			t.Fatalf("tick %d: halting run diverged before the halt", i)
		}
	}
	if free.Summary.Halted {
		t.Fatal("run without HaltAfterBelowTicks halted")
	}
}
