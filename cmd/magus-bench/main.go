// Command magus-bench regenerates the paper's evaluation artifacts:
// every table and figure of the CoNEXT 2015 Magus paper, printed as the
// same rows and series the paper reports.
//
// Usage:
//
//	magus-bench [-exp all|table1|table2|fig2|fig8|fig10|fig11|fig12|fig13|maps|calendar] [-seeds 1,2,3]
//	            [-json results.json] [-model-cache dir]
//	            [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	magus-bench -compare [-gate regexp] [-regress-pct 20] old.json new.json
//
// With -json, per-experiment timings are also written to the given path
// as a JSON array of {name, iterations, ns_per_op} records — the shape
// CI trend dashboards ingest.
//
// With -compare, no experiments run: the two timing files (either the
// -json record shape or raw `go test -bench` output) are diffed
// per-benchmark, and the process exits non-zero when a benchmark
// matching -gate regressed its ns/op by more than -regress-pct percent.
//
// Absolute numbers differ from the paper (the substrate is a synthetic
// market, not a production carrier); the qualitative shape — who wins,
// by roughly what factor, where the crossovers fall — is the
// reproduction target. See EXPERIMENTS.md for the side-by-side record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"magus/internal/experiments"
)

// main delegates to run so deferred profile writers execute before the
// process exits (os.Exit skips defers).
func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment to run: all, table1, table2, fig2, fig8, fig10, fig11, fig12, fig13, maps, calendar, ext-hybrid, ext-signaling, ext-outage, ext-loadbal, ext-uedist, ext-carriers, ops-week, sim-window, wave-season, executor-chaos, parallel-joint")
	seedsFlag := flag.String("seeds", "1,2,3", "comma-separated area replicate seeds for table1/fig13")
	jsonPath := flag.String("json", "", "also write per-experiment timings to this path as JSON")
	workers := flag.Int("workers", 0, "in-search candidate-scoring parallelism (0 = sequential; parallel-joint defaults to NumCPU)")
	modelCacheDir := flag.String("model-cache", "", "directory for on-disk model snapshots; repeat runs over the same markets skip the model build")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	compareMode := flag.Bool("compare", false, "compare two timing files (old new) instead of running experiments")
	gatePattern := flag.String("gate", "", "with -compare: regexp of benchmark names whose regression fails the run (empty = report only)")
	regressPct := flag.Float64("regress-pct", 20, "with -compare: max tolerated ns/op increase, percent, for gated benchmarks")
	flag.Parse()
	if *compareMode {
		return runCompare(flag.Args(), *gatePattern, *regressPct)
	}
	experiments.SetSearchWorkers(*workers)
	if err := experiments.SetModelCacheDir(*modelCacheDir); err != nil {
		fmt.Fprintln(os.Stderr, "magus-bench:", err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "magus-bench:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "magus-bench:", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "magus-bench:", err)
				return
			}
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "magus-bench:", err)
			}
			f.Close()
		}()
	}

	seeds, err := parseSeeds(*seedsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "magus-bench:", err)
		return 2
	}

	runners := map[string]func() (fmt.Stringer, error){
		"table1": func() (fmt.Stringer, error) {
			return experiments.RunTable1(experiments.Table1Options{Seeds: seeds})
		},
		"table2": func() (fmt.Stringer, error) { return experiments.RunTable2(seeds[0]) },
		"fig2":   func() (fmt.Stringer, error) { return experiments.RunFigure2(seeds[0]) },
		"fig8":   func() (fmt.Stringer, error) { return experiments.RunFigure8(seeds[0]) },
		"fig10":  func() (fmt.Stringer, error) { return experiments.RunFigure10(seeds[0]) },
		"fig11":  func() (fmt.Stringer, error) { return experiments.RunFigure11(seeds[0]) },
		"fig12":  func() (fmt.Stringer, error) { return experiments.RunFigure12(seeds[0]) },
		"fig13": func() (fmt.Stringer, error) {
			return experiments.RunFigure13(experiments.Figure13Options{Seeds: seeds})
		},
		"maps":     func() (fmt.Stringer, error) { return experiments.RunMaps(seeds[0]) },
		"calendar": func() (fmt.Stringer, error) { return experiments.RunCalendar(seeds[0]), nil },
		// Extensions beyond the paper's evaluation (its Sections 2 and 8
		// roadmap); see DESIGN.md section 8.
		"ext-hybrid":    func() (fmt.Stringer, error) { return experiments.RunHybridSweep(seeds[0]) },
		"ext-signaling": func() (fmt.Stringer, error) { return experiments.RunSignaling(seeds[0]) },
		"ext-outage":    func() (fmt.Stringer, error) { return experiments.RunOutageStudy(seeds[0]) },
		"ext-loadbal":   func() (fmt.Stringer, error) { return experiments.RunLoadBalance(seeds[0]) },
		"ext-uedist":    func() (fmt.Stringer, error) { return experiments.RunUEDistribution(seeds[0]) },
		"ext-carriers":  func() (fmt.Stringer, error) { return experiments.RunMultiCarrier(seeds[0]) },
		"ops-week":      func() (fmt.Stringer, error) { return experiments.RunOpsWeek(seeds[0], 2) },
		"sim-window":    func() (fmt.Stringer, error) { return experiments.RunSimWindow(seeds[0]) },
		// wave-season is the upgrade-season scheduler study: annealed
		// wave assignment vs naive round-robin on season-min f(C_after).
		"wave-season": func() (fmt.Stringer, error) { return experiments.RunWaveSeason(seeds[0]) },
		// executor-chaos is the guarded runbook executor's robustness
		// study: the same gradual upgrade executed end to end at
		// increasing injected fault rates, measuring retries spent and
		// utility-floor exposure.
		"executor-chaos": func() (fmt.Stringer, error) { return experiments.RunExecutorChaos(seeds[0]) },
		// parallel-joint is this reproduction's own throughput study
		// (sequential vs parallel joint search, speculate vs rescore);
		// run on demand, not part of "all".
		"parallel-joint": func() (fmt.Stringer, error) {
			return experiments.RunParallelJoint(seeds[0], *workers)
		},
	}
	order := []string{"calendar", "fig2", "maps", "fig8", "fig10", "table1", "fig11", "fig12", "table2", "fig13",
		"ext-hybrid", "ext-signaling", "ext-outage", "ext-loadbal", "ext-uedist", "ext-carriers", "ops-week",
		"sim-window", "wave-season", "executor-chaos"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		if _, ok := runners[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "magus-bench: unknown experiment %q\n", *exp)
			return 2
		}
		selected = []string{*exp}
	}

	var records []benchRecord
	for _, name := range selected {
		start := time.Now()
		result, err := runners[name]()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "magus-bench: %s: %v\n", name, err)
			return 1
		}
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", name, elapsed.Seconds(), result)
		records = append(records, benchRecord{Name: name, Iterations: 1, NsPerOp: elapsed.Nanoseconds()})
		if timed, ok := result.(experiments.Timed); ok {
			for _, t := range timed.Timings() {
				records = append(records, benchRecord{Name: name + "/" + t.Name, Iterations: t.Iterations, NsPerOp: t.NsPerOp})
			}
		}
	}

	if *jsonPath != "" {
		if err := writeBenchJSON(*jsonPath, records); err != nil {
			fmt.Fprintf(os.Stderr, "magus-bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// benchRecord is one timing in the -json output, shaped like a Go
// benchmark result so downstream tooling can treat the two alike.
type benchRecord struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	NsPerOp    int64  `json:"ns_per_op"`
}

// writeBenchJSON writes records to path as an indented JSON array.
func writeBenchJSON(path string, records []benchRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds given")
	}
	return out, nil
}
