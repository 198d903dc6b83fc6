package simwindow_test

import (
	"sync"
	"testing"

	"magus/internal/core"
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
	grad *runbook.Runbook
}

var benchFixes sync.Map // size name -> *benchFix

func benchFixture(b *testing.B, sz benchSize) (*core.Engine, *runbook.Runbook) {
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
		fx.eng, fx.grad = eng, grad
	})
	if fx.err != nil {
		b.Fatalf("bench fixture %s: %v", sz.name, fx.err)
	}
	return fx.eng, fx.grad
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
				eng, grad := benchFixture(b, sz)
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
