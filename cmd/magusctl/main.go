// Command magusctl plans a single upgrade mitigation end to end, the
// operator-facing workflow of the paper: pick an area, an upgrade
// scenario and a tuning method; magusctl prints the recovery accounting,
// the tuning steps that produce C_after, and (with -migrate) the gradual
// migration schedule that avoids synchronized handovers.
//
// Usage:
//
//	magusctl [-class suburban] [-scenario a] [-method joint]
//	         [-seed 1] [-utility performance] [-migrate] [-reactive]
//	         [-data market.json] [-data-policy repair] [-export-data market.json]
//
// With -data, the engine plans from an operational dataset (sanitized
// under -data-policy) instead of its synthetic link budgets;
// -export-data writes the engine's own data in that exchange format.
//
// The campaign subcommand instead drives a running magusd: it submits
// the cross-product of its -classes/-scenarios/-methods/-seeds flags as
// one asynchronous campaign and polls until every job finishes:
//
//	magusctl campaign [-server http://localhost:8080] [-classes rural,suburban,urban]
//	                  [-scenarios a,b,c] [-methods power,tilt,joint] [-seeds 1]
//
// The simulate subcommand executes the planned runbook through magusd's
// upgrade-window simulator, optionally with faults and replanning:
//
//	magusctl simulate [-server http://localhost:8080] [-scenario a] [-method joint]
//	                  [-faults "push-fail@2,sector-down@20:17"] [-diurnal] [-replan] [-series]
//
// The wave subcommand plans a whole upgrade season through magusd's
// wave scheduler (see internal/waveplan):
//
//	magusctl wave plan   [-server ...] [-class suburban] [-seed 1] [-crews 4]
//	                     [-blackout 0,2] [-replay] [-faults "sector-down@2:17"]
//	magusctl wave status -id <id> [-server ...]
//
// The execute subcommand drives the planned runbook through magusd's
// guarded executor — checkpointed pushes, KPI watchdog, auto-rollback:
//
//	magusctl execute run    [-server ...] [-scenario a] [-method joint]
//	                        [-chaos "push-error@2x2,kpi-breach@3"]
//	magusctl execute status -id <id> [-server ...]
//
// Exit codes, for every subcommand:
//
//	0  success — the requested work completed (and, for wave/execute,
//	   no halt: the season ran through / every step verified)
//	1  reserved for flag parsing errors (flag.ExitOnError)
//	2  domain failure — bad arguments, a rejected request, a failed or
//	   cancelled job, a halted season, or a halted-with-rollback run
//	   (the guard stopped the upgrade; the network was restored)
//	3  transient exhaustion — the server stayed unreachable, draining
//	   or overloaded through every client-side retry (see retry.go)
package main

import (
	"flag"
	"fmt"
	"os"

	"magus"
	"magus/internal/experiments"
	"magus/internal/impact"
	"magus/internal/runbook"
	"magus/internal/schedule"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "campaign" {
		runCampaign(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "simulate" {
		runSimulate(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		runFleet(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "wave" {
		runWave(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "execute" {
		runExecute(os.Args[2:])
		return
	}
	classFlag := flag.String("class", "suburban", "area class: rural, suburban, urban")
	scenarioFlag := flag.String("scenario", "a", "upgrade scenario: a (single sector), b (full site), c (four corners)")
	methodFlag := flag.String("method", "joint", "tuning method: power, tilt, joint, naive, anneal")
	utilFlag := flag.String("utility", "performance", "objective: performance, coverage")
	seed := flag.Int64("seed", 1, "market seed")
	migrateFlag := flag.Bool("migrate", false, "print the gradual migration schedule")
	runbookFlag := flag.String("runbook", "", "emit an operator runbook: 'text' or 'json'")
	reactiveFlag := flag.Bool("reactive", false, "compare against the reactive feedback baseline")
	assessFlag := flag.Bool("assess", false, "print the per-sector impact assessment of the unmitigated upgrade")
	windowFlag := flag.Int("window", 0, "rank upgrade start times for a work window of this many hours")
	workersFlag := flag.Int("workers", 0, "in-search candidate-scoring parallelism (0 = score on one goroutine)")
	dataFlag := flag.String("data", "", "operational dataset JSON to plan from (see -export-data)")
	dataPolicyFlag := flag.String("data-policy", "repair", "sanitizer policy for -data: strict, repair, quarantine")
	exportFlag := flag.String("export-data", "", "write the engine's operational dataset to this file and exit")
	modelCacheFlag := flag.String("model-cache", "", "directory for on-disk model snapshots; repeat invocations over the same market skip the model build")
	flag.Parse()
	experiments.SetSearchWorkers(*workersFlag)
	if err := experiments.SetModelCacheDir(*modelCacheFlag); err != nil {
		fail("model cache: %v", err)
	}

	class, ok := map[string]magus.AreaClass{
		"rural": magus.Rural, "suburban": magus.Suburban, "urban": magus.Urban,
	}[*classFlag]
	if !ok {
		fail("unknown class %q", *classFlag)
	}
	scenario, ok := map[string]magus.Scenario{
		"a": magus.SingleSector, "b": magus.FullSite, "c": magus.FourCorners,
	}[*scenarioFlag]
	if !ok {
		fail("unknown scenario %q", *scenarioFlag)
	}
	method, ok := map[string]magus.Method{
		"power": magus.PowerOnly, "tilt": magus.TiltOnly,
		"joint": magus.Joint, "naive": magus.NaiveBaseline,
		"anneal": magus.Annealed,
	}[*methodFlag]
	if !ok {
		fail("unknown method %q", *methodFlag)
	}
	util, ok := map[string]magus.UtilityFunc{
		"performance": magus.Performance, "coverage": magus.Coverage,
	}[*utilFlag]
	if !ok {
		fail("unknown utility %q", *utilFlag)
	}

	fmt.Printf("building %s market (seed %d)...\n", class, *seed)
	engine, err := experiments.BuildEngine(*seed, experiments.DefaultAreaSpec(class))
	if err != nil {
		fail("build engine: %v", err)
	}

	if *dataFlag != "" {
		policy, err := magus.ParseSanitizePolicy(*dataPolicyFlag)
		if err != nil {
			fail("%v", err)
		}
		ds, err := magus.LoadDataset(*dataFlag)
		if err != nil {
			fail("load dataset: %v", err)
		}
		rep, err := engine.UseDataset(ds, policy)
		if err != nil {
			if rep != nil {
				fail("dataset rejected: %v (%d defects)", err, rep.Found)
			}
			fail("dataset: %v", err)
		}
		fmt.Printf("dataset %s: policy %s, %d defects found, %d repaired, %d sectors quarantined\n",
			*dataFlag, rep.Policy, rep.Found, rep.Repaired, len(rep.Quarantined))
		for i, is := range rep.Issues {
			if i >= 5 {
				fmt.Printf("  ... %d more issues\n", rep.Found-5)
				break
			}
			fmt.Printf("  %s sector %d -> %s: %s\n", is.Kind, is.Sector, is.Action, is.Detail)
		}
	}

	if *exportFlag != "" {
		if err := magus.SaveDataset(*exportFlag, engine.ExportDataset()); err != nil {
			fail("export dataset: %v", err)
		}
		fmt.Printf("wrote operational dataset to %s\n", *exportFlag)
		return
	}

	plan, err := engine.Mitigate(scenario, method, util)
	if err != nil {
		fail("mitigate: %v", err)
	}

	fmt.Printf("\nupgrade %s, tuning %s, objective %s\n", plan.Scenario, plan.Method, plan.Util.Name)
	fmt.Printf("  target sectors:   %v\n", plan.Targets)
	fmt.Printf("  neighbor set:     %d sectors within %.0f m\n",
		len(plan.Neighbors), engine.NeighborRadius())
	fmt.Printf("  f(C_before):      %.1f\n", plan.UtilityBefore)
	fmt.Printf("  f(C_upgrade):     %.1f\n", plan.UtilityUpgrade)
	fmt.Printf("  f(C_after):       %.1f\n", plan.UtilityAfter)
	fmt.Printf("  recovery ratio:   %.1f%%\n", 100*plan.RecoveryRatio())
	fmt.Printf("  search: %d steps, %d model evaluations\n",
		len(plan.Search.Steps), plan.Search.Evaluations)
	if st := plan.Search.Stats; st.Workers > 1 {
		fmt.Printf("  engine: %d workers, %d delta / %d full evals, %.0f%% worker utilization\n",
			st.Workers, st.DeltaEvaluations, st.FullEvaluations, 100*st.WorkerUtilization)
	}
	for i, st := range plan.Search.Steps {
		if i >= 10 {
			fmt.Printf("    ... %d more steps\n", len(plan.Search.Steps)-10)
			break
		}
		fmt.Printf("    step %2d: %-28s utility %.1f\n", i+1, st.Change, st.Utility)
	}

	if *runbookFlag != "" {
		mig, err := plan.GradualMigration(magus.MigrationOptions{})
		if err != nil {
			fail("migrate: %v", err)
		}
		rb, err := runbook.Build(plan, mig)
		if err != nil {
			fail("runbook: %v", err)
		}
		fmt.Println()
		switch *runbookFlag {
		case "text":
			if err := rb.WriteText(os.Stdout); err != nil {
				fail("runbook: %v", err)
			}
		case "json":
			if err := rb.WriteJSON(os.Stdout); err != nil {
				fail("runbook: %v", err)
			}
		default:
			fail("unknown runbook format %q (want text or json)", *runbookFlag)
		}
	}

	if *migrateFlag {
		mig, err := plan.GradualMigration(magus.MigrationOptions{})
		if err != nil {
			fail("migrate: %v", err)
		}
		fmt.Printf("\ngradual migration: %d steps, max burst %.0f UEs, %.1f%% seamless, floor %.1f (target %.1f)\n",
			len(mig.Steps), mig.MaxSimultaneousHandovers,
			100*mig.SeamlessFraction(), mig.UtilityFloor, mig.AfterUtility)
		for i, s := range mig.Steps {
			mark := ""
			if s.UpgradeStep {
				mark = "  <- target off-air"
			}
			fmt.Printf("  step %2d: utility %.1f, %4.0f handovers (%4.0f seamless), %d compensations%s\n",
				i+1, s.Utility, s.Handovers, s.Seamless, s.Compensations, mark)
		}
	}

	if *assessFlag {
		before := impact.Take(engine.Before)
		unmitigated := impact.Take(plan.Upgrade)
		mitigated := impact.Take(plan.After)
		repRaw, err := impact.Assess(before, unmitigated, impact.Thresholds{})
		if err != nil {
			fail("assess: %v", err)
		}
		repMit, err := impact.Assess(before, mitigated, impact.Thresholds{})
		if err != nil {
			fail("assess: %v", err)
		}
		fmt.Printf("\nimpact without mitigation:\n%s", repRaw)
		fmt.Printf("\nimpact with Magus mitigation:\n%s", repMit)
	}

	if *windowFlag > 0 {
		rec, err := schedule.Plan(plan, schedule.DefaultProfile(), *windowFlag)
		if err != nil {
			fail("schedule: %v", err)
		}
		fmt.Printf("\n%s", rec)
		best := rec.Best()
		fmt.Printf("recommended start: %02d:00 (mean load %.2f)\n", best.StartHour, best.LoadFactor)
	}

	if *reactiveFlag {
		ideal, err := plan.ReactiveBaseline(magus.FeedbackIdealized, magus.FeedbackOptions{})
		if err != nil {
			fail("reactive: %v", err)
		}
		realistic, err := plan.ReactiveBaseline(magus.FeedbackRealistic, magus.FeedbackOptions{})
		if err != nil {
			fail("reactive: %v", err)
		}
		fmt.Printf("\nreactive feedback baseline (starts AFTER the sector is down):\n")
		fmt.Printf("  idealized: %d tuning steps to converge\n", ideal.Steps)
		fmt.Printf("  realistic: %d measurement rounds = %.1f h at 5 min each\n",
			realistic.Measurements, realistic.TimeSeconds/3600)
		fmt.Printf("  proactive Magus: 0 post-upgrade steps (C_after applied beforehand)\n")
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "magusctl: "+format+"\n", args...)
	os.Exit(2)
}
