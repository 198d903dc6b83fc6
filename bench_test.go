// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md and micro-benchmarks of the model's hot paths.
//
// The experiment benchmarks report the reproduced headline quantity of
// their artifact as a custom metric (recovery ratios, burst reduction
// factors, step counts) so `go test -bench` output doubles as a results
// table. Engines are memoized across iterations, so the first iteration
// pays the market construction cost and later ones measure the
// experiment itself.
package magus_test

import (
	"fmt"
	"runtime"
	"testing"

	"magus/internal/campaign"
	"magus/internal/config"
	"magus/internal/core"
	"magus/internal/experiments"
	"magus/internal/geo"
	"magus/internal/hybrid"
	"magus/internal/migrate"
	"magus/internal/modelcache"
	"magus/internal/netmodel"
	"magus/internal/outageplan"
	"magus/internal/propagation"
	"magus/internal/search"
	"magus/internal/signaling"
	"magus/internal/terrain"
	"magus/internal/testbed"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
	"magus/internal/waveplan"
)

var benchSeeds = []int64{1}

// benchEnv memoizes the benchmarks' markets across iterations.
var benchEnv = &campaign.Env{Engines: campaign.NewEngineCache(0)}

// BenchmarkTable1 regenerates Table 1 (recovery ratio per area class,
// upgrade scenario and tuning method).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.RunTable1(benchEnv, experiments.Table1Options{Seeds: benchSeeds})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.MeanByClass(topology.Suburban, core.Joint), "suburban-joint-recovery")
		b.ReportMetric(tab.MeanByClass(topology.Rural, core.PowerOnly), "rural-power-recovery")
	}
}

// BenchmarkTable2 regenerates Table 2 (cross-utility recovery matrix).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.RunTable2(benchEnv, benchSeeds[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Recovery["performance"]["performance"], "perf-opt-perf-recovery")
		b.ReportMetric(tab.Recovery["coverage"]["coverage"], "cov-opt-cov-recovery")
	}
}

// BenchmarkFigure2Scenario1 regenerates the 2-eNodeB testbed experiment.
func BenchmarkFigure2Scenario1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunScenario(testbed.Scenario1(), testbed.Config{Seed: benchSeeds[0]}, testbed.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RecoveryRatio(), "recovery")
	}
}

// BenchmarkFigure2Scenario2 regenerates the 3-eNodeB interference-aware
// testbed experiment.
func BenchmarkFigure2Scenario2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunScenario(testbed.Scenario2(), testbed.Config{Seed: benchSeeds[0]}, testbed.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RecoveryRatio(), "recovery")
	}
}

// BenchmarkFigure8InterfererCounts regenerates the per-class density
// statistics and coverage maps.
func BenchmarkFigure8InterfererCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure8(benchEnv, benchSeeds[0])
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range fig.Rows {
			b.ReportMetric(float64(r.InterferingSectors), r.Class.String()+"-interferers")
		}
	}
}

// BenchmarkFigure10RuralLimit regenerates the rural +10 dB boost
// demonstration.
func BenchmarkFigure10RuralLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure10(benchEnv, benchSeeds[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.RecoveredFraction, "coverage-recovered")
	}
}

// BenchmarkFigure11GradualTuning regenerates the gradual-vs-one-shot
// migration comparison.
func BenchmarkFigure11GradualTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure11(benchEnv, benchSeeds[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.BurstReductionFactor, "burst-reduction-x")
		b.ReportMetric(fig.Gradual.SeamlessFraction(), "seamless-fraction")
	}
}

// BenchmarkFigure12Convergence regenerates the strategy convergence
// comparison.
func BenchmarkFigure12Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure12(benchEnv, benchSeeds[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(fig.IdealizedSteps), "idealized-steps")
		b.ReportMetric(float64(fig.RealisticMeasurements), "realistic-measurements")
	}
}

// BenchmarkFigure13ImprovementCDF regenerates the Magus-vs-naive
// improvement ratio distribution.
func BenchmarkFigure13ImprovementCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure13(benchEnv, experiments.Figure13Options{Seeds: benchSeeds})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Summary.Mean, "mean-improvement")
		b.ReportMetric(fig.FractionAtLeastNaive, "fraction-at-least-naive")
	}
}

// BenchmarkCalendar regenerates the Section 1 planned-upgrade calendar
// statistics.
func BenchmarkCalendar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cal := experiments.RunCalendar(benchSeeds[0])
		b.ReportMetric(cal.Stats.TueFriRatio, "tue-fri-ratio")
	}
}

// BenchmarkMaps regenerates the Figure 3/4/5/7 map renderings.
func BenchmarkMaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		maps, err := experiments.RunMaps(benchEnv, benchSeeds[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(maps.ServedFraction, "served-fraction")
	}
}

// benchScenario prepares a reusable suburban upgrade for the ablation
// and micro benchmarks.
func benchScenario(b *testing.B) (*core.Engine, *core.Plan) {
	b.Helper()
	engine, err := benchEnv.Build(benchSeeds[0], campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.Mitigate(upgrade.SingleSector, core.PowerOnly, utility.Performance)
	if err != nil {
		b.Fatal(err)
	}
	return engine, plan
}

// BenchmarkAblationPruning compares Algorithm 1 with the paper's
// candidate pruning against a variant that evaluates every neighbor
// each iteration (DESIGN.md ablation 1).
func BenchmarkAblationPruning(b *testing.B) {
	engine, plan := benchScenario(b)
	for _, mode := range []struct {
		name      string
		noPruning bool
	}{{"pruned", false}, {"unpruned", true}} {
		b.Run(mode.name, func(b *testing.B) {
			evals := 0
			for i := 0; i < b.N; i++ {
				work := plan.Upgrade.Clone()
				res, err := search.Power(work, engine.Before, plan.Neighbors,
					search.Options{NoPruning: mode.noPruning})
				if err != nil {
					b.Fatal(err)
				}
				evals = res.Evaluations
				b.ReportMetric(res.FinalUtility, "final-utility")
			}
			b.ReportMetric(float64(evals), "model-evaluations")
		})
	}
}

// BenchmarkAblationIncremental compares the incremental single-sector
// re-evaluation against a full model recomputation per change
// (DESIGN.md ablation 2).
func BenchmarkAblationIncremental(b *testing.B) {
	engine, plan := benchScenario(b)
	neighbor := plan.Neighbors[0]
	b.Run("incremental", func(b *testing.B) {
		st := engine.Before.Clone()
		delta := 1.0
		for i := 0; i < b.N; i++ {
			if _, err := st.Apply(config.Change{Sector: neighbor, PowerDelta: delta}); err != nil {
				b.Fatal(err)
			}
			delta = -delta
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		cfg := engine.Before.Cfg.Clone()
		delta := 1.0
		for i := 0; i < b.N; i++ {
			cfg.AdjustPower(neighbor, delta)
			_ = engine.Model.NewState(cfg.Clone())
			delta = -delta
		}
	})
}

// BenchmarkAblationGradualStepSize sweeps the gradual migration's
// per-step power reduction (DESIGN.md ablation 4): finer steps trade
// migration length for smaller handover bursts.
func BenchmarkAblationGradualStepSize(b *testing.B) {
	engine, err := benchEnv.Build(benchSeeds[0], campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.Mitigate(upgrade.FullSite, core.Joint, utility.Performance)
	if err != nil {
		b.Fatal(err)
	}
	for _, step := range []float64{1, 3, 6} {
		b.Run(map[float64]string{1: "1dB", 3: "3dB", 6: "6dB"}[step], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mig, err := plan.GradualMigration(migrate.Options{TargetStepDB: step})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(mig.MaxSimultaneousHandovers, "max-burst")
				b.ReportMetric(float64(len(mig.Steps)), "steps")
			}
		})
	}
}

// BenchmarkModelBuild measures analysis-model construction (grid +
// contributor entries) for a suburban area, sequential versus parallel
// at two grid resolutions. The parallel build is bit-identical to the
// sequential one (netmodel's golden test enforces it), so the sub-
// benchmarks differ only in wall clock; the speedup needs real cores.
func BenchmarkModelBuild(b *testing.B) {
	engine, _ := benchScenario(b)
	region := engine.Net.Bounds
	parWorkers := runtime.NumCPU()
	if parWorkers < 4 {
		// Single-core machines still exercise the sharded code path; the
		// measured speedup is then ~1x by construction.
		parWorkers = 4
	}
	for _, grid := range []struct {
		name      string
		cellSizeM float64
	}{{"small-400m", 400}, {"medium-150m", 150}} {
		for _, w := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {fmt.Sprintf("par%d", parWorkers), parWorkers}} {
			b.Run(grid.name+"/"+w.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m, err := netmodel.NewModel(engine.Net, engine.SPM, region,
						netmodel.Params{CellSizeM: grid.cellSizeM, BuildWorkers: w.workers})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(m.NumContributors()), "contributors")
				}
			})
		}
	}
}

// BenchmarkModelSnapshotLoad compares a cold model build against
// reloading the same model from an on-disk snapshot — the cost a warm
// magusd restart, or an engine-cache miss on an evicted market, pays per
// market with -model-cache set. The snapshot cache keeps no model in
// memory, so every snapshot-load iteration maps the file into a new core.
func BenchmarkModelSnapshotLoad(b *testing.B) {
	engine, _ := benchScenario(b)
	region := engine.Net.Bounds
	params := netmodel.Params{CellSizeM: 200}
	cache, err := modelcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	// Prime the snapshot once so the load sub-benchmark hits every time.
	if _, err := cache.LoadOrBuild(engine.Net, engine.SPM, region, params); err != nil {
		b.Fatal(err)
	}
	b.Run("cold-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := netmodel.NewModel(engine.Net, engine.SPM, region, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot-load", func(b *testing.B) {
		b.ReportAllocs()
		hits := cache.Stats().Hits
		for i := 0; i < b.N; i++ {
			if _, err := cache.LoadOrBuild(engine.Net, engine.SPM, region, params); err != nil {
				b.Fatal(err)
			}
		}
		if st := cache.Stats(); st.Builds != 1 || st.Hits-hits != int64(b.N) {
			b.Fatalf("snapshot-load did not load the snapshot every time: %+v", st)
		}
	})
}

// BenchmarkEngineSetup builds the suburban seed-1 market from scratch
// as a daemon's start-up does (default area spec, 300 Equalize steps):
// the model build, C_before and the Equalize pass that scores each
// sector's power and tilt moves. It is the layer-level figure behind
// the end-to-end set-up time.
func BenchmarkEngineSetup(b *testing.B) {
	spec := campaign.DefaultAreaSpec(topology.Suburban)
	for i := 0; i < b.N; i++ {
		if _, err := core.NewEngine(core.SetupConfig{
			Seed:          benchSeeds[0],
			Class:         spec.Class,
			RegionSpanM:   spec.RegionSpanM,
			CellSizeM:     spec.CellSizeM,
			EqualizeSteps: 300,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateApplyPower measures the incremental power-change fast
// path, the innermost operation of every search.
func BenchmarkStateApplyPower(b *testing.B) {
	engine, plan := benchScenario(b)
	st := engine.Before.Clone()
	neighbor := plan.Neighbors[0]
	delta := 1.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Apply(config.Change{Sector: neighbor, PowerDelta: delta}); err != nil {
			b.Fatal(err)
		}
		delta = -delta
	}
}

// BenchmarkStateApplyTilt measures the tilt-change path: RefreshSector
// installs the model's cached link row for the new tilt and re-prices
// the sector's entries (one multiply each), with no antenna pattern or
// exp per entry once the row is cached.
func BenchmarkStateApplyTilt(b *testing.B) {
	engine, plan := benchScenario(b)
	st := engine.Before.Clone()
	neighbor := plan.Neighbors[0]
	delta := 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Apply(config.Change{Sector: neighbor, TiltDelta: delta}); err != nil {
			b.Fatal(err)
		}
		delta = -delta
	}
}

// BenchmarkUtilityEval measures one overall-utility evaluation: the
// full-grid scan in closed form.
func BenchmarkUtilityEval(b *testing.B) {
	engine, _ := benchScenario(b)
	st := engine.Before.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Utility(utility.Performance)
	}
}

// BenchmarkSpeculate prices one candidate move per op: the
// clone-and-full-rescore oracle versus the read-only SpeculateBatch
// scorer evalengine.ScoreAll runs on every candidate, for power moves
// (batch-float) and retilts (batch-tilt, which read the model's cached
// per-tilt rows), and one whole power round (batch-round).
func BenchmarkSpeculate(b *testing.B) {
	_, plan := benchScenario(b)
	moves := make([]config.Change, len(plan.Neighbors))
	tilts := make([]config.Change, 0, 2*len(plan.Neighbors))
	for i, n := range plan.Neighbors {
		moves[i] = config.Change{Sector: n, PowerDelta: 1}
		tilts = append(tilts, config.Change{Sector: n, TiltDelta: 1}, config.Change{Sector: n, TiltDelta: -1})
	}
	b.Run("clone-full", func(b *testing.B) {
		st := plan.Upgrade.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			work := st.Clone()
			if _, err := work.Apply(moves[i%len(moves)]); err != nil {
				b.Fatal(err)
			}
			_ = work.Utility(utility.Performance)
		}
	})
	// The read-only scorer prices the same candidates without applying
	// them.
	b.Run("batch-float", func(b *testing.B) {
		st := plan.Upgrade.Clone()
		out := make([]netmodel.BatchResult, 0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mv := i % len(moves)
			out = st.SpeculateBatch(moves[mv:mv+1], utility.Performance, out[:0])
			if out[0].Err != nil {
				b.Fatal(out[0].Err)
			}
		}
	})
	b.Run("batch-tilt", func(b *testing.B) {
		st := plan.Upgrade.Clone()
		out := make([]netmodel.BatchResult, 0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mv := i % len(tilts)
			out = st.SpeculateBatch(tilts[mv:mv+1], utility.Performance, out[:0])
			if out[0].Err != nil {
				b.Fatal(out[0].Err)
			}
		}
	})
	// One powerPhase round on the four-corners scenario, the largest
	// neighbour set: every neighbour's +1 dB move priced in a single
	// SpeculateBatch call, as evalengine.ScoreAll does with one worker.
	b.Run("batch-round", func(b *testing.B) {
		_, st, neighbors := roundScenario(b)
		round := make([]config.Change, len(neighbors))
		for i, n := range neighbors {
			round[i] = config.Change{Sector: n, PowerDelta: 1}
		}
		out := make([]netmodel.BatchResult, 0, len(round))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = st.SpeculateBatch(round, utility.Performance, out[:0])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(round)), "ns/move")
	})
}

// roundScenario returns the bench market's engine, a state at C_upgrade
// of its four-corners scenario, and the scenario's neighbour set.
func roundScenario(b *testing.B) (*core.Engine, *netmodel.State, []int) {
	b.Helper()
	engine, err := benchEnv.Build(benchSeeds[0], campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.Mitigate(upgrade.FourCorners, core.PowerOnly, utility.Performance)
	if err != nil {
		b.Fatal(err)
	}
	return engine, plan.Upgrade.Clone(), plan.Neighbors
}

// BenchmarkSINRImprovers measures step (i) of Algorithm 1 on the first
// round of the four-corners scenario: the β test of every neighbour's
// +1 dB move against the grids the upgrade degrades.
func BenchmarkSINRImprovers(b *testing.B) {
	engine, st, neighbors := roundScenario(b)
	affected := st.DegradedGrids(engine.Before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(st.SINRImprovers(affected, neighbors, 1)) == 0 {
			b.Fatal("no neighbour improves an affected grid")
		}
	}
}

// BenchmarkUtilityDelta answers "what is the utility after this power
// change?" two ways: Apply then the full-grid scan, and the read-only
// SpeculateBatch delta, which needs no Apply, no revert and no scan.
func BenchmarkUtilityDelta(b *testing.B) {
	_, plan := benchScenario(b)
	neighbor := plan.Neighbors[0]
	b.Run("full-scan", func(b *testing.B) {
		st := plan.Upgrade.Clone()
		delta := 1.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Apply(config.Change{Sector: neighbor, PowerDelta: delta}); err != nil {
				b.Fatal(err)
			}
			_ = st.Utility(utility.Performance)
			delta = -delta
		}
	})
	// The batch path answers the same "utility after this change"
	// question read-only — no Apply, no revert.
	b.Run("batch-float", func(b *testing.B) {
		st := plan.Upgrade.Clone()
		moves := []config.Change{{Sector: neighbor, PowerDelta: 1}}
		out := make([]netmodel.BatchResult, 0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = st.SpeculateBatch(moves, utility.Performance, out[:0])
			if out[0].Err != nil {
				b.Fatal(out[0].Err)
			}
		}
	})
}

// BenchmarkJointSearch runs the joint search on the four-corners
// scenario (the largest neighbor set) with one scoring worker and with
// one per CPU. Every candidate is priced read-only by SpeculateBatch, so
// both settings produce the same plan.
func BenchmarkJointSearch(b *testing.B) {
	engine, err := benchEnv.Build(benchSeeds[0], campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		b.Fatal(err)
	}
	sweep := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		sweep = append(sweep, n)
	} else {
		// Single-CPU machine: still exercise the parallel path (the
		// speedup needs real cores, the correctness doesn't).
		sweep = append(sweep, 2)
	}
	for _, workers := range sweep {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan, err := engine.MitigatePlan(core.MitigateRequest{
					Scenario: upgrade.FourCorners,
					Method:   core.Joint,
					Workers:  workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(plan.UtilityAfter, "final-utility")
				b.ReportMetric(plan.Search.Stats.WorkerUtilization, "worker-utilization")
			}
		})
	}
}

// BenchmarkTestbedMeasure measures one second of simulated TTI-level
// proportional-fair scheduling on the LTE testbed.
func BenchmarkTestbedMeasure(b *testing.B) {
	sc := testbed.Scenario2()
	tb, err := testbed.New(testbed.Config{Seed: 1}, sc.ENodeBs, sc.UEs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tb.Measure(1)
	}
}

// BenchmarkExtensionHybrid measures the hybrid model+feedback evaluation
// at the default 4 dB model error.
func BenchmarkExtensionHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := hybrid.Run(hybrid.Config{Seed: benchSeeds[0], Class: topology.Suburban,
			RegionSpanM: 6000, CellSizeM: 200})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.HybridSteps), "k-steps")
		b.ReportMetric(float64(res.FeedbackOnlySteps), "K-steps")
	}
}

// BenchmarkExtensionOutagePlan measures precomputing outage responses
// for the tuning-area sectors.
func BenchmarkExtensionOutagePlan(b *testing.B) {
	engine, _ := benchScenario(b)
	for i := 0; i < b.N; i++ {
		p, err := outageplan.New(engine, nil, outageplan.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(p.Covered())), "sectors-covered")
	}
}

// BenchmarkExtensionSignaling measures the signaling-queue replay of a
// migration plan.
func BenchmarkExtensionSignaling(b *testing.B) {
	engine, err := benchEnv.Build(benchSeeds[0], campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.Mitigate(upgrade.FullSite, core.Joint, utility.Performance)
	if err != nil {
		b.Fatal(err)
	}
	gradual, err := plan.GradualMigration(migrate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	oneShot, err := plan.OneShotMigration(migrate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, o, err := signaling.Compare(gradual, oneShot, signaling.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.FailureFraction(), "gradual-failure-frac")
		b.ReportMetric(o.FailureFraction(), "oneshot-failure-frac")
	}
}

// BenchmarkExtensionLoadBalance measures one congestion-relief run.
func BenchmarkExtensionLoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study, err := experiments.RunLoadBalance(benchEnv, benchSeeds[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(study.Result.InitialImbalance, "initial-imbalance")
		b.ReportMetric(study.Result.FinalImbalance, "final-imbalance")
	}
}

// BenchmarkAblationTiltApprox compares model construction and baseline
// radio state under exact terrain-aware tilt geometry versus the paper's
// shared flat-earth approximation (DESIGN.md ablation 3).
func BenchmarkAblationTiltApprox(b *testing.B) {
	terr := terrain.MustGenerate(terrain.Config{
		Seed:   benchSeeds[0],
		Bounds: geo.NewRectCentered(geo.Point{}, 8000, 8000),
	})
	net := topology.MustGenerate(topology.GenConfig{
		Seed: benchSeeds[0], Class: topology.Suburban,
		Bounds: geo.NewRectCentered(geo.Point{}, 6000, 6000),
	})
	spm := propagation.MustNewSPM(2.635e9, terr)
	spm.DiffractionWeight = 0
	for _, mode := range []struct {
		name   string
		approx bool
	}{{"exact", false}, {"shared-delta", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := netmodel.NewModel(net, spm, net.Bounds,
					netmodel.Params{CellSizeM: 200, ApproxTiltElevation: mode.approx})
				if err != nil {
					b.Fatal(err)
				}
				st := m.NewState(config.New(net))
				st.AssignUsersUniform()
				b.ReportMetric(st.Utility(utility.Performance), "baseline-utility")
			}
		})
	}
}

// BenchmarkExtensionMultiCarrier measures the dual-carrier mitigation
// comparison.
func BenchmarkExtensionMultiCarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study, err := experiments.RunMultiCarrier(benchSeeds[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(study.SingleRecovery, "single-carrier-recovery")
		b.ReportMetric(study.DualRecovery, "dual-carrier-recovery")
	}
}

// BenchmarkAblationAnnealVsHeuristic compares Algorithm 1 against the
// simulated-annealing variant on an urban scenario — where the paper
// speculates the heuristic "may get stuck at a local optima".
func BenchmarkAblationAnnealVsHeuristic(b *testing.B) {
	engine, err := benchEnv.Build(benchSeeds[0], campaign.DefaultAreaSpec(topology.Urban))
	if err != nil {
		b.Fatal(err)
	}
	for _, method := range []core.Method{core.PowerOnly, core.Joint, core.Annealed} {
		b.Run(method.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan, err := engine.Mitigate(upgrade.SingleSector, method, utility.Performance)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(plan.RecoveryRatio(), "recovery")
				b.ReportMetric(float64(plan.Search.Evaluations), "evaluations")
			}
		})
	}
}

// BenchmarkWavePlan schedules a whole upgrade season on the suburban
// evaluation market: conflict graph, crew/calendar-constrained anneal,
// and a full mitigation search per wave. The reported metric is the
// season-wide minimum f(C_after), the quantity the schedule optimizes.
func BenchmarkWavePlan(b *testing.B) {
	engine, err := benchEnv.Build(benchSeeds[0], campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := waveplan.Plan(engine, nil, waveplan.Options{
			Constraints: waveplan.Constraints{CrewsPerWave: 3, MaxWaves: 6, OverlapThreshold: 0.4},
			Method:      core.Joint,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MinWaveUtility, "season-min-utility")
		b.ReportMetric(float64(res.ConflictEdges), "conflict-edges")
	}
}
