// Command perfbench is the end-to-end benchmark of magusd. It starts the
// daemon in-process (httpapi behind a loopback listener), drives one of
// three seeded closed-loop workloads against it, checks every reply,
// and prints its metrics by name with their units. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// same request sequence is also replayed in-process with a span around
// each layer call, and the metrics are the per-layer ones.
//
// Usage (from the repository root, see README.md):
//
//	bash perfbench/run.sh --workload plan-interactive --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final JSON line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name, or all: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := flag.Int("seconds", 25, "run length: the run sends the number of passes that take this long on the reference machine")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for journals, removed afterwards")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	var run []Workload
	if *workload == "all" {
		run = workloads
	} else if w, ok := workloadByName(*workload); ok {
		run = []Workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *workload, workloadNames())
		os.Exit(2)
	}

	fmt.Printf("# perfbench: GOMAXPROCS=%d NumCPU=%d %s %s/%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	total := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, w := range run {
		dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("%s-%d", w.Name, os.Getpid())))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		cfg := runConfig{seed: *seed, passes: w.passes(float64(*seconds)), setups: setupRuns, dir: dir}
		var res Result
		if *trace == 1 {
			res, err = runTraced(w, cfg)
		} else {
			res, err = runEndToEnd(w, cfg)
		}
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(run) > 1 {
				k = w.Name + "/" + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !total.Correct || total.Failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// runConfig is one run's settings.
type runConfig struct {
	seed   int64
	passes int
	setups int
	dir    string
}

// setupRuns is how many times an end-to-end run sets the daemon up;
// setup_s is the median, which the first, colder set-up does not move.
const setupRuns = 5

// setUp starts the daemon cfg.setups times, keeping the last one, and
// returns it with the median set-up time: engine builds, listener,
// /healthz and the warm-up request that fills lazy state.
func setUp(w Workload, cfg runConfig) (*daemon, float64, error) {
	var times []float64
	var d *daemon
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		d, err = startDaemon(filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)), w.Name == "season-batch")
		if err != nil {
			return nil, 0, err
		}
		if err := warmUp(d); err != nil {
			d.close()
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return d, median(times), nil
}

// warmUp sends one fixed-point tilt plan: the fixed-point mirror of the
// model is built lazily by the first request that asks for it.
func warmUp(d *daemon) error {
	h := newHTTPClient(d.base, 1)
	defer h.close()
	o := h.do(Request{Class: classPlan, Scenario: "a", Method: "tilt", Fixed: true})
	if o.Err != nil {
		return fmt.Errorf("warm-up: %w", o.Err)
	}
	return nil
}

// runEndToEnd sets the daemon up, drives the run's passes through HTTP
// and reports the end-to-end metrics.
func runEndToEnd(w Workload, cfg runConfig) (Result, error) {
	d, setupS, err := setUp(w, cfg)
	if err != nil {
		return Result{}, err
	}
	h := newHTTPClient(d.base, w.Clients)
	outs, elapsed := closedLoop(w, cfg.seed, cfg.passes, h.do)
	h.close()
	if err := d.close(); err != nil {
		return Result{}, err
	}
	res := summarize(w, outs, elapsed)
	res.Metrics["setup_s"] = Metric{setupS, "s"}
	fmt.Printf("# %s: seed %d, %d passes, %d requests in %.2fs, setup %.3fs (median of %d)\n",
		w.Name, cfg.seed, cfg.passes, len(outs), elapsed.Seconds(), setupS, cfg.setups)
	report(w, outs, elapsed)
	return res, nil
}

// latencyGroups are the request classes each end-to-end latency figure
// is taken over, per workload; /plan and /runbook form one group.
var latencyGroups = map[string][][]string{
	"plan-interactive": {{classPlan, classRunbook}},
	"window-replay":    {{classSimulate}, {classExecute}},
	"season-batch":     {{classCampaignHot}, {classCampaignCold}, {classSeason}},
}

// latencies returns the latencies (ms) of the outcomes in the classes.
func latencies(outs []Outcome, classes ...string) []float64 {
	var xs []float64
	for _, o := range outs {
		for _, c := range classes {
			if o.Req.Class == c && o.Err == nil {
				xs = append(xs, ms(o.Latency))
			}
		}
	}
	return xs
}

// summarize turns a run's outcomes into the end-to-end metrics.
// latency_p50_ms is the geometric mean over request kinds of each
// kind's median latency, so every kind weighs the same and the figure
// does not jump between kinds as the median of a mixed population
// would. latency_tail_ms is the geometric mean over the workload's
// latency groups of each group's tail percentile.
func summarize(w Workload, outs []Outcome, elapsed time.Duration) Result {
	res := Result{Correct: true, Attempted: len(outs), Metrics: map[string]Metric{}}
	byKind := map[string][]float64{}
	for _, o := range outs {
		if o.Err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", o.Req.Class, o.Err)
			continue
		}
		byKind[o.Req.Kind()] = append(byKind[o.Req.Kind()], ms(o.Latency))
	}
	var p50s, tails []float64
	for _, xs := range byKind {
		p50s = append(p50s, median(xs))
	}
	for _, g := range latencyGroups[w.Name] {
		xs := latencies(outs, g...)
		tails = append(tails, quantile(xs, tailQuantile(len(xs))))
	}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no successful request of a group: the run already failed
		}
		res.Metrics[name] = Metric{v, unit}
	}
	put("latency_p50_ms", geomean(p50s), "ms")
	put("latency_tail_ms", geomean(tails), "ms")
	put("throughput_rps", float64(len(outs)-res.Failed)/elapsed.Seconds(), "1/s")
	put("quality", quality(w, outs), "ratio")
	return res
}

// quality is the workload's outcome figure: mean Formula-7 recovery of
// the /plan replies (plan-interactive), mean final utility over final
// floor of the simulated windows (window-replay), mean recovery of the
// hot campaigns' jobs (season-batch; the same 27 jobs on the same
// markets in every pass, so the figure does not depend on how many
// cold markets a run reached).
func quality(w Workload, outs []Outcome) float64 {
	var xs []float64
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		switch {
		case w.Name == "plan-interactive" && o.Req.Class == classPlan:
			xs = append(xs, o.Facts.Recovery)
		case w.Name == "window-replay" && o.Req.Class == classSimulate:
			xs = append(xs, o.Facts.FloorRatio)
		case w.Name == "season-batch" && o.Req.Class == classCampaignHot:
			for _, j := range o.Facts.Jobs {
				xs = append(xs, j.Result.Recovery)
			}
		}
	}
	return mean(xs)
}

// report prints the per-class figures the end-to-end metrics are built
// from, by their documented names (README.md), one per line.
func report(w Workload, outs []Outcome, elapsed time.Duration) {
	lat := func(prefix string, classes ...string) {
		tailLine(prefix+".", "_ms", latencies(outs, classes...), "ms")
	}
	ok := len(outs)
	for _, o := range outs {
		if o.Err != nil {
			ok--
		}
	}
	switch w.Name {
	case "plan-interactive":
		lat("plan", classPlan, classRunbook)
		line("plan.rps", float64(ok)/elapsed.Seconds(), "1/s", ok)
		line("plan.recovery_mean", quality(w, outs), "ratio", len(latencies(outs, classPlan)))
	case "window-replay":
		lat("simulate", classSimulate)
		lat("execute", classExecute)
		line("window.rps", float64(ok)/elapsed.Seconds(), "1/s", ok)
	case "season-batch":
		hot, cold, season := latencies(outs, classCampaignHot), latencies(outs, classCampaignCold), latencies(outs, classSeason)
		line("campaign.hot_s", median(hot)/1000, "s", len(hot))
		line("campaign.cold_s", median(cold)/1000, "s", len(cold))
		var rec []float64
		for _, o := range outs {
			for _, j := range o.Facts.Jobs {
				rec = append(rec, j.Result.Recovery)
			}
		}
		line("campaign.recovery_mean", mean(rec), "ratio", len(rec))
		line("campaign.hot_recovery_mean", quality(w, outs), "ratio", 27*len(hot))
		line("waves.season_s", median(season)/1000, "s", len(season))
		var minU []float64
		for _, o := range outs {
			if s := o.Facts.Season; s != nil {
				minU = append(minU, s.MinWaveUtility)
			}
		}
		line("waves.min_utility", mean(minU), "utility", len(minU))
	}
}
