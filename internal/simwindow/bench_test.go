package simwindow_test

import (
	"sync"
	"testing"

	"magus/internal/core"
	"magus/internal/executor"
	"magus/internal/migrate"
	"magus/internal/runbook"
	"magus/internal/schedule"
	"magus/internal/simwindow"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// benchSize is one grid density of the sweep: the same 6 km suburban
// market at progressively finer cell sizes, so the grid count grows
// quadratically while the sector count stays fixed. That is exactly the
// axis the incremental engine targets — per-tick measurement cost
// should track the dirty set, not the grid count.
type benchSize struct {
	name      string
	cellSizeM float64
}

var benchSizes = []benchSize{
	{"small", 300},  // 20x20 = 400 grids
	{"medium", 150}, // 40x40 = 1600 grids
	{"large", 75},   // 80x80 = 6400 grids
}

// benchFix memoizes one engine+runbook per grid size: construction
// dominates wall clock and must stay outside the timed loop.
type benchFix struct {
	once sync.Once
	err  error
	eng  *core.Engine
	plan *core.Plan
	grad *runbook.Runbook
}

var benchFixes sync.Map // size name -> *benchFix

func benchFixture(b *testing.B, sz benchSize) *benchFix {
	b.Helper()
	v, _ := benchFixes.LoadOrStore(sz.name, &benchFix{})
	fx := v.(*benchFix)
	fx.once.Do(func() {
		eng, err := core.NewEngine(core.SetupConfig{
			Seed:          3,
			Class:         topology.Suburban,
			RegionSpanM:   6000,
			CellSizeM:     sz.cellSizeM,
			EqualizeSteps: 100,
		})
		if err != nil {
			fx.err = err
			return
		}
		plan, err := eng.Mitigate(upgrade.SingleSector, core.PowerOnly, utility.Performance)
		if err != nil {
			fx.err = err
			return
		}
		mig, err := plan.GradualMigration(migrate.Options{})
		if err != nil {
			fx.err = err
			return
		}
		grad, err := runbook.Build(plan, mig)
		if err != nil {
			fx.err = err
			return
		}
		fx.eng, fx.plan, fx.grad = eng, plan, grad
	})
	if fx.err != nil {
		b.Fatalf("bench fixture %s: %v", sz.name, fx.err)
	}
	return fx
}

// BenchmarkSimWindow sweeps one simulated upgrade window — runbook
// pushes, diurnal load evolution, a fault of each timed kind, and the
// per-tick measurement pass — across grid sizes, in both measurement
// modes: "inc" is the default incremental KPI engine, "full" the
// retained full-scan reference (the NewFullScan test hook). The inc/full
// ratio at a given size is the tentpole's claim; the checked-in
// BENCH_PR10.json records it and CI gates inc-medium against it.
// Run with -benchmem to see the per-window allocation budget (the tick
// loop itself reuses its event and measurement scratch).
func BenchmarkSimWindow(b *testing.B) {
	modes := []struct {
		name string
		full bool
	}{
		{"inc", false},
		{"full", true},
	}
	for _, sz := range benchSizes {
		for _, mode := range modes {
			b.Run(mode.name+"-"+sz.name, func(b *testing.B) {
				fx := benchFixture(b, sz)
				eng, grad := fx.eng, fx.grad
				profile := schedule.DefaultProfile()
				faults, err := simwindow.ParseFaults(
					"sector-down@25:" + itoa(grad.TunedSectors[0]) +
						", surge@10+8:" + itoa(grad.Targets[0]) + ":x1.8")
				if err != nil {
					b.Fatalf("ParseFaults: %v", err)
				}
				// The window shape matters: pushes land in the first ~20
				// ticks and the rest is the settle phase operators actually
				// watch (six hours at the default 60 s tick), where per-tick
				// cost is pure measurement — the axis this benchmark
				// compares. 360 ticks crosses the incremental engine's
				// resync cadence several times, so its number pays the
				// amortized rebuild cost honestly. Construction (cloning
				// states, pre-applying the runbook to the floor reference)
				// is untimed: it is per-window, not per-tick.
				cfg := simwindow.Config{
					Seed:      42,
					Ticks:     360,
					Profile:   &profile,
					LoadNoise: 0.05,
					Faults:    faults,
				}
				newSim := simwindow.New
				if mode.full {
					newSim = simwindow.NewFullScan
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sim, err := newSim(eng.Before, grad, cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := sim.Run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(
					float64(b.Elapsed().Nanoseconds())/float64(b.N*(cfg.Ticks+1)),
					"ns/tick")
			})
		}
	}
}

// benchMedium is the sweep's medium grid, the size CI gates.
var benchMedium = benchSizes[1]

// Sinks keep the measured calls' results alive.
var (
	setupSimSink  *simwindow.Simulator
	setupNetSink  *executor.SimNetwork
	migrationSink *migrate.Plan
)

// BenchmarkWindowSetup prices what every /simulate and /execute pays
// before its first tick: a simulator and an executor network, each a
// Session on a fork of the engine's model whose live state is a copy of
// the engine's fresh baseline and whose C_after state is built there,
// on the medium fixture.
func BenchmarkWindowSetup(b *testing.B) {
	fx := benchFixture(b, benchMedium)
	cfg := simwindow.Config{Seed: 42, Ticks: 360}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if setupSimSink, err = simwindow.New(fx.eng.Before, fx.grad, cfg); err != nil {
			b.Fatal(err)
		}
		if setupNetSink, err = executor.NewSimNetwork(fx.eng.Before, fx.grad, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSettleDay prices a full day's window on the medium fixture:
// 1440 one-minute ticks along the diurnal profile with load noise, the
// runbook's pushes in the first ticks and no faults. Almost every tick is
// settle phase, where the cost is the per-tick KPI read and the
// 64-tick resync. Construction is untimed.
func BenchmarkSettleDay(b *testing.B) {
	fx := benchFixture(b, benchMedium)
	profile := schedule.DefaultProfile()
	cfg := simwindow.Config{Seed: 42, Ticks: 1440, Profile: &profile, LoadNoise: 0.02}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, err := simwindow.New(fx.eng.Before, fx.grad, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(cfg.Ticks+1)), "ns/tick")
}

// BenchmarkGradualMigration prices one gradual migration (Figure 11's
// schedule, the runbook's source) on the medium fixture's plan.
func BenchmarkGradualMigration(b *testing.B) {
	plan := benchFixture(b, benchMedium).plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if migrationSink, err = plan.GradualMigration(migrate.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
