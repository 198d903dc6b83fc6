package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"magus/internal/config"
	"magus/internal/experiments"
	"magus/internal/geo"
	"magus/internal/netmodel"
	"magus/internal/propagation"
	"magus/internal/search"
	"magus/internal/topology"
	"magus/internal/utility"
	"magus/internal/waveplan"
)

// campaignWorkers is the campaign pool size: the orchestrator's
// default, GOMAXPROCS.
func campaignWorkers() int { return runtime.GOMAXPROCS(0) }

// runTraced measures the per-layer metrics. One daemon is set up; a
// quarter of the run's passes go through HTTP, then the same passes are
// replayed in-process twice, calling the layers directly: untraced,
// then with a span around every call. The replays' difference is the
// tracing overhead; HTTP minus the untraced replay is the HTTP layer's
// overhead.
func runTraced(w Workload, cfg runConfig) (_ Result, err error) {
	cfg.setups = 1
	d, _, err := setUp(w, cfg)
	if err != nil {
		return Result{}, err
	}
	defer func() {
		if cerr := d.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	h := newHTTPClient(d.base, w.Clients)
	passes := max(1, cfg.passes/4)
	httpOuts, _ := closedLoop(w, cfg.seed, passes, h.do)
	h.close()

	campaigns := w.Name == "season-batch"
	phase := func(name string, tr *tracer) ([]Outcome, *replayer, error) {
		rp, err := newReplayer(d, filepath.Join(cfg.dir, name), tr, campaigns)
		if err != nil {
			return nil, nil, err
		}
		outs, _ := closedLoop(w, cfg.seed, passes, rp.do)
		return outs, rp, rp.close()
	}
	plainOuts, _, err := phase("plain", nil)
	if err != nil {
		return Result{}, err
	}
	tracedOuts, rp, err := phase("traced", newTracer())
	if err != nil {
		return Result{}, err
	}

	res := Result{Correct: true, Metrics: map[string]Metric{}}
	all := append(append(append([]Outcome(nil), httpOuts...), plainOuts...), tracedOuts...)
	for _, o := range all {
		res.Attempted++
		if o.Err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", o.Req.Class, o.Err)
		}
	}
	self, err := selfTimes(rp.tr.spans)
	if err != nil {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: trace inconsistent: %v\n", err)
		self = make([]time.Duration, len(rp.tr.spans))
	}
	fmt.Printf("# %s: seed %d, %d passes, %d requests each through HTTP, untraced and traced replay\n",
		w.Name, cfg.seed, passes, len(httpOuts))
	lm := newLayerMetrics(rp, self)
	lm.overheads(httpOuts, plainOuts, tracedOuts)
	lm.layers()
	if campaigns {
		if err := lm.probes(tracedOuts, cfg.seed); err != nil {
			return Result{}, err
		}
	}
	res.Metrics = lm.metrics
	return res, nil
}

// layerMetrics derives the per-layer figures of one traced replay.
type layerMetrics struct {
	rp      *replayer
	spans   []span
	self    []time.Duration
	selfBy  map[string]time.Duration
	durBy   map[string][]float64 // span durations (ms) by name
	reqTime time.Duration        // Σ root span durations
	metrics map[string]Metric
}

func newLayerMetrics(rp *replayer, self []time.Duration) *layerMetrics {
	lm := &layerMetrics{
		rp: rp, spans: rp.tr.spans, self: self,
		selfBy: map[string]time.Duration{}, durBy: map[string][]float64{}, metrics: map[string]Metric{},
	}
	for i, s := range lm.spans {
		lm.selfBy[s.Name] += self[i]
		lm.durBy[s.Name] = append(lm.durBy[s.Name], ms(s.End-s.Start))
		if s.Parent < 0 {
			lm.reqTime += s.End - s.Start
		}
	}
	return lm
}

func (lm *layerMetrics) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	lm.metrics[name] = Metric{v, unit}
}

// line prints one report figure by its documented name.
func line(name string, v float64, unit string, n int) {
	fmt.Printf("%-30s %14.4f %-8s n=%d\n", name, v, unit, n)
}

// tailLine prints the median of xs and, when there are enough samples
// for one, its tail percentile (see tailQuantile).
func tailLine(prefix, suffix string, xs []float64, unit string) {
	line(prefix+"p50"+suffix, median(xs), unit, len(xs))
	if q := tailQuantile(len(xs)); q > 0.5 {
		line(fmt.Sprintf("%sp%02.0f%s", prefix, q*100, suffix), quantile(xs, q), unit, len(xs))
	}
}

// ratio is num/den, 0 when den is 0 (a layer the workload never calls).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// share is the layers' self time over all request time.
func (lm *layerMetrics) share(names ...string) float64 {
	var t time.Duration
	for _, n := range names {
		t += lm.selfBy[n]
	}
	return ratio(float64(t), float64(lm.reqTime))
}

// overheads compares the three phases: the tracing overhead per request
// (traced minus untraced replay) and the HTTP layer's overhead per
// request class (the median over the class's requests of HTTP latency
// minus the same request's untraced replay; the metric is the
// request-weighted mean over classes).
func (lm *layerMetrics) overheads(httpOuts, plainOuts, tracedOuts []Outcome) {
	sum := func(outs []Outcome) (t float64) {
		for _, o := range outs {
			t += ms(o.Latency)
		}
		return t
	}
	plain, traced := sum(plainOuts), sum(tracedOuts)
	lm.put("trace.overhead_ms", ratio(traced-plain, float64(len(tracedOuts))), "ms")
	lm.put("trace.overhead_share", ratio(traced-plain, plain), "share")
	lm.put("trace.spans_per_request", ratio(float64(len(lm.spans)), float64(len(tracedOuts))), "count")
	line("trace.overhead_ms", ratio(traced-plain, float64(len(tracedOuts))), "ms", len(tracedOuts))

	type key struct{ pass, index int }
	inProcess := map[key]time.Duration{}
	for _, o := range plainOuts {
		inProcess[key{o.Req.Pass, o.Req.Index}] = o.Latency
	}
	diffs := map[string][]float64{}
	for _, o := range httpOuts {
		if p, ok := inProcess[key{o.Req.Pass, o.Req.Index}]; ok && o.Err == nil {
			diffs[o.Req.Class] = append(diffs[o.Req.Class], ms(o.Latency-p))
		}
	}
	var weighted float64
	var n int
	for _, c := range []string{classPlan, classRunbook, classSimulate, classExecute, classCampaignHot, classCampaignCold, classSeason} {
		if xs := diffs[c]; len(xs) > 0 {
			line("httpapi.overhead_ms/"+c, median(xs), "ms", len(xs))
			weighted += median(xs) * float64(len(xs))
			n += len(xs)
		}
	}
	lm.put("httpapi.overhead_ms", ratio(weighted, float64(n)), "ms")
}

// emit records a per-layer metric and, when the workload called the
// layer (n > 0), prints it as a report line.
func (lm *layerMetrics) emit(name string, v float64, unit string, n int) {
	lm.put(name, v, unit)
	if n > 0 {
		line(name, v, unit, n)
	}
}

// perCall prints the median and tail duration of one kind of span.
func (lm *layerMetrics) perCall(name string) {
	if xs := lm.durBy[name]; len(xs) > 0 {
		tailLine(name+".", "_ms", xs, "ms")
	}
}

// layers derives the shares, rates and counts of the request path.
func (lm *layerMetrics) layers() {
	var f layerFacts
	var sims, runs, rolled, campaigns, seasons int
	var jobMS []float64
	var makespan time.Duration
	for _, rd := range lm.rp.done {
		lf := rd.lf
		switch rd.req.Class {
		case classSimulate:
			sims++
		case classExecute:
			runs++
			if lf.RolledBack {
				rolled++
			}
		case classCampaignHot, classCampaignCold:
			campaigns++
		case classSeason:
			seasons++
		}
		f.Evaluations += lf.Evaluations
		f.Proposed += lf.Proposed
		f.Accepted += lf.Accepted
		f.Ticks += lf.Ticks
		f.Pushes += lf.Pushes
		f.Replans += lf.Replans
		f.Records += lf.Records
		f.Retries += lf.Retries
		f.Hits += lf.Hits
		f.Misses += lf.Misses
		f.Builds += lf.Builds
		f.AnnealIters += lf.AnnealIters
		f.AnnealAccepts += lf.AnnealAccepts
		f.Replays += lf.Replays
		jobMS = append(jobMS, lf.JobMS...)
		makespan += lf.Makespan
	}

	// Shares of request time.
	for _, s := range []struct{ metric, span string }{
		{"core.mitigate_share", "core.mitigate"},
		{"migrate.gradual_share", "migrate.gradual"},
		{"runbook.build_share", "runbook.build"},
		{"simwindow.new_share", "simwindow.new"},
		{"simwindow.run_share", "simwindow.run"},
		{"executor.setup_share", "executor.setup"},
		{"executor.push_share", "executor.push"},
		{"executor.observe_share", "executor.observe"},
		{"executor.self_share", "executor.run"},
		{"campaign.run_share", "campaign.run"},
		{"waveplan.plan_share", "waveplan.plan"},
	} {
		lm.emit(s.metric, lm.share(s.span), "share", len(lm.durBy[s.span]))
	}
	lm.emit("request.other_share", lm.share("request", "executor.preflight", "executor.applied"), "share", len(lm.durBy["request"]))

	// Search, migration and runbook.
	plans := len(lm.durBy["core.mitigate"])
	mitigateMS := total(lm.durBy["core.mitigate"])
	lm.perCall("core.mitigate")
	lm.emit("search.evals_per_plan", ratio(float64(f.Evaluations), float64(plans)), "count", plans)
	lm.emit("search.evals_per_ms", ratio(float64(f.Evaluations), mitigateMS), "1/ms", plans)
	if plans > 0 {
		line("search.us_per_eval", 1000*ratio(mitigateMS, float64(f.Evaluations)), "us", plans)
	}
	lm.emit("search.accept_ratio", ratio(float64(f.Accepted), float64(f.Proposed)), "ratio", plans)
	lm.perCall("migrate.gradual")
	lm.perCall("runbook.build")

	// Window simulator.
	runMS := total(lm.durBy["simwindow.run"])
	lm.perCall("simwindow.new")
	lm.perCall("simwindow.run")
	lm.emit("simwindow.ticks_per_ms", ratio(float64(f.Ticks), runMS), "1/ms", sims)
	if sims > 0 {
		line("simwindow.us_per_tick", 1000*ratio(runMS, float64(f.Ticks)), "us", sims)
	}
	lm.emit("simwindow.pushes", ratio(float64(f.Pushes), float64(sims)), "count", sims)
	lm.emit("simwindow.replans", ratio(float64(f.Replans), float64(sims)), "count", sims)

	// Executor and its journal.
	lm.perCall("executor.push")
	lm.perCall("executor.observe")
	var runSelf []float64
	for i, s := range lm.spans {
		if s.Name == "executor.run" {
			runSelf = append(runSelf, ms(lm.self[i]))
		}
	}
	if len(runSelf) > 0 {
		tailLine("executor.self_ms.", "", runSelf, "ms")
	}
	lm.emit("journal.records_per_run", ratio(float64(f.Records), float64(runs)), "count", runs)
	lm.emit("executor.retries", ratio(float64(f.Retries), float64(runs)), "count", runs)
	lm.emit("executor.rolled_back_share", ratio(float64(rolled), float64(runs)), "share", runs)

	// Campaign pool and engine cache.
	if len(jobMS) > 0 {
		tailLine("campaign.job_ms.", "", jobMS, "ms")
	}
	lm.emit("campaign.pool_busy_share", ratio(total(jobMS), float64(campaignWorkers())*ms(makespan)), "share", campaigns)
	lm.emit("campaign.cache_hit_ratio", ratio(float64(f.Hits), float64(f.Hits+f.Misses)), "ratio", campaigns)
	lm.emit("campaign.engine_builds", ratio(float64(f.Builds), float64(campaigns)), "count", campaigns)
	lm.emit("campaign.jobs_per_s", ratio(float64(len(jobMS)), makespan.Seconds()), "1/s", campaigns)
	if campaigns > 0 {
		lm.campaignKinds()
	}

	// Wave scheduler.
	lm.perCall("waveplan.plan")
	lm.emit("waveplan.anneal_accept_ratio", ratio(float64(f.AnnealAccepts), float64(f.AnnealIters)), "ratio", seasons)
	lm.emit("waveplan.replays", ratio(float64(f.Replays), float64(seasons)), "count", seasons)
}

// campaignKinds prints engine builds per campaign kind: hot campaigns
// should build nothing, cold ones one engine per class.
func (lm *layerMetrics) campaignKinds() {
	for _, kind := range []string{classCampaignHot, classCampaignCold} {
		var builds, n int64
		for _, rd := range lm.rp.done {
			if rd.req.Class == kind {
				builds += rd.lf.Builds
				n++
			}
		}
		line(kind+".engine_builds", ratio(float64(builds), float64(n)), "count", int(n))
	}
}

func total(xs []float64) (t float64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// probes time the season-batch layers that run inside a campaign job or
// a season, on the same inputs, from outside: the model build and the
// baseline equalization of the first cold market, per class, and the
// conflict graph and exact evaluation of the first traced season.
func (lm *layerMetrics) probes(tracedOuts []Outcome, seed int64) error {
	cold := seasonPass(seed, 0)[1].Jobs[0].Seed
	for _, c := range classes {
		build, equalize, err := probeBuild(classByName[c], cold)
		if err != nil {
			return err
		}
		line("netmodel.build_ms/"+c, ms(build), "ms", 1)
		line("search.equalize_ms/"+c, ms(equalize), "ms", 1)
	}
	var season *waveplan.Result
	var req Request
	for _, o := range tracedOuts {
		if o.Facts.Season != nil {
			season, req = o.Facts.Season, o.Req
			break
		}
	}
	if season == nil {
		return fmt.Errorf("probe: no traced season")
	}
	e := lm.rp.engine
	start := time.Now()
	g := waveplan.BuildConflictGraph(e.Model, waveplan.UpgradeSet(e), season.Constraints.OverlapThreshold, season.Constraints.MarginDB)
	line("waveplan.conflict_ms", ms(time.Since(start)), "ms", g.Edges())
	byWave := make([][]int, season.Constraints.MaxWaves)
	for _, wv := range season.Waves {
		byWave[wv.Slot] = wv.Sectors
	}
	opts := seasonOptions(req)
	opts.Constraints = season.Constraints
	start = time.Now()
	if _, err := waveplan.EvaluateAssignment(e, byWave, opts); err != nil {
		return fmt.Errorf("probe: evaluate: %w", err)
	}
	line("waveplan.evaluate_ms", ms(time.Since(start)), "ms", len(season.Waves))
	return nil
}

// probeBuild repeats core.NewEngine's steps for a default-spec market,
// timing the model build and the baseline equalization.
func probeBuild(class topology.AreaClass, seed int64) (build, equalize time.Duration, err error) {
	spec := experiments.DefaultAreaSpec(class)
	region := geo.NewRectCentered(geo.Point{}, spec.RegionSpanM, spec.RegionSpanM)
	net, err := topology.Generate(topology.GenConfig{Seed: seed, Class: class, Bounds: region})
	if err != nil {
		return 0, 0, err
	}
	spm, err := propagation.NewSPM(2.635e9, nil)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	model, err := netmodel.NewModel(net, spm, region, netmodel.Params{CellSizeM: spec.CellSizeM})
	build = time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	st := model.NewState(config.New(net))
	st.AssignUsersUniform()
	start = time.Now()
	_, err = search.Equalize(st, search.Options{
		MaxSteps: 300, Util: utility.Performance, PowerUnitDB: 2, TiltUnit: 2, CapAtDefaultPower: true,
	})
	return build, time.Since(start), err
}
