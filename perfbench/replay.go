package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"magus/internal/campaign"
	"magus/internal/chaos"
	"magus/internal/core"
	"magus/internal/executor"
	"magus/internal/journal"
	"magus/internal/migrate"
	"magus/internal/runbook"
	"magus/internal/schedule"
	"magus/internal/simwindow"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/waveplan"
)

var (
	scenarioByName = map[string]upgrade.Scenario{
		"a": upgrade.SingleSector, "b": upgrade.FullSite, "c": upgrade.FourCorners,
	}
	methodByName = map[string]core.Method{
		"power": core.PowerOnly, "tilt": core.TiltOnly, "joint": core.Joint,
	}
)

// layerFacts are the counters one replayed request read from its
// layers' public results.
type layerFacts struct {
	Evaluations   int64         // search evaluations over the request's plans
	Proposed      int64         // search moves proposed
	Accepted      int64         // search moves accepted
	Ticks         int           // simulated ticks
	Pushes        int           // simulated pushes applied
	Replans       int           // simulated replans
	Records       int64         // executor journal records
	Retries       int           // executor push retries
	RolledBack    bool          // executor run rolled back
	Hits          int64         // engine cache hits (campaigns)
	Misses        int64         // engine cache misses (campaigns)
	Builds        int64         // engine builds (campaigns)
	JobMS         []float64     // campaign job durations
	Makespan      time.Duration // campaign submit to finish
	AnnealIters   int64         // season anneal iterations
	AnnealAccepts int64         // season anneal moves accepted
	Replays       int64         // season wave replays
}

// replayed is one replayed request and what its layers reported.
type replayed struct {
	req Request
	lf  layerFacts
}

// replayer sends a workload's requests to the layers in-process: the
// same calls, in the same order and with the same parameters, that
// magusd's handlers make, with a span around each.
type replayer struct {
	engine *core.Engine
	dir    string
	tr     *tracer
	nextID atomic.Int64

	// season-batch: a campaign pool of its own over a cache that holds
	// the hot markets only, so cold campaigns build again.
	cache *campaign.EngineCache
	orch  *campaign.Orchestrator
	jr    *journal.Journal

	mu   sync.Mutex
	done []replayed
}

func newReplayer(d *daemon, dir string, tr *tracer, campaigns bool) (*replayer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &replayer{engine: d.engine, dir: dir, tr: tr}
	if !campaigns {
		return r, nil
	}
	r.cache = campaign.NewEngineCache(8)
	for _, c := range classes {
		class := classByName[c]
		hot, err := d.cache.GetOrBuild(cacheKey(class, hotMarketSeed), func() (*core.Engine, error) {
			return nil, fmt.Errorf("hot market %s not built during set-up", c)
		})
		if err != nil {
			return nil, err
		}
		if _, err := r.cache.GetOrBuild(cacheKey(class, hotMarketSeed), func() (*core.Engine, error) { return hot, nil }); err != nil {
			return nil, err
		}
	}
	var err error
	r.jr, err = journal.Open(filepath.Join(dir, "campaigns.wal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	r.orch, err = campaign.New(campaign.Config{
		Build: func(_ context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
			return r.cache.GetOrBuild(cacheKey(class, seed), func() (*core.Engine, error) {
				return buildEngine(class, seed)
			})
		},
		Cache:   r.cache,
		Journal: r.jr,
	})
	if err != nil {
		r.jr.Close()
		return nil, err
	}
	return r, nil
}

func (r *replayer) close() error {
	var err error
	if r.orch != nil {
		r.orch.Close()
		err = r.jr.Close()
	}
	if rerr := os.RemoveAll(r.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// do replays one request inside a root span and checks its result with
// the same checks as the HTTP reply.
func (r *replayer) do(req Request) Outcome {
	id := int(r.nextID.Add(1))
	start := time.Now()
	root := r.tr.begin(id, -1, "request")
	facts, lf, err := r.replay(id, root, req)
	r.tr.end(root)
	lat := time.Since(start)
	r.mu.Lock()
	r.done = append(r.done, replayed{req, lf})
	r.mu.Unlock()
	return Outcome{Req: req, Latency: lat, Facts: facts, Err: err}
}

func (r *replayer) replay(id, root int, req Request) (Facts, layerFacts, error) {
	var lf layerFacts
	var facts Facts
	var err error
	switch req.Class {
	case classPlan:
		var p *core.Plan
		if p, err = r.plan(id, root, req, &lf); err == nil {
			facts, err = checkPlan(mustJSON(planReply{
				UtilityBefore: p.UtilityBefore, UtilityUpgrade: p.UtilityUpgrade, UtilityAfter: p.UtilityAfter,
				Recovery: p.RecoveryRatio(), Evaluations: p.Search.Evaluations,
			}))
		}
	case classRunbook:
		var rb *runbook.Runbook
		if _, rb, err = r.runbook(id, root, req, &lf); err == nil {
			facts, err = checkRunbook(mustJSON(rb))
		}
	case classSimulate:
		facts, err = r.simulate(id, root, req, &lf)
	case classExecute:
		facts, err = r.execute(id, root, req, &lf)
	case classCampaignHot, classCampaignCold:
		facts, err = r.campaign(id, root, req, &lf)
	case classSeason:
		facts, err = r.season(id, root, req, &lf)
	default:
		err = fmt.Errorf("unknown request class %q", req.Class)
	}
	return facts, lf, err
}

// plan calls core.Engine.MitigatePlan as the /plan handler does.
func (r *replayer) plan(id, root int, req Request, lf *layerFacts) (*core.Plan, error) {
	var p *core.Plan
	var err error
	r.tr.timed(id, root, "core.mitigate", func() {
		p, err = r.engine.MitigatePlan(core.MitigateRequest{
			Ctx:        context.Background(),
			Scenario:   scenarioByName[req.Scenario],
			Method:     methodByName[req.Method],
			FixedPoint: req.Fixed,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("mitigate: %w", err)
	}
	lf.Evaluations += int64(p.Search.Evaluations)
	lf.Proposed += p.Search.Stats.MovesProposed
	lf.Accepted += p.Search.Stats.MovesAccepted
	return p, nil
}

// runbook plans, migrates and builds the runbook as /runbook does.
func (r *replayer) runbook(id, root int, req Request, lf *layerFacts) (*core.Plan, *runbook.Runbook, error) {
	p, err := r.plan(id, root, req, lf)
	if err != nil {
		return nil, nil, err
	}
	var mig *migrate.Plan
	r.tr.timed(id, root, "migrate.gradual", func() { mig, err = p.GradualMigration(migrate.Options{}) })
	if err != nil {
		return nil, nil, fmt.Errorf("migrate: %w", err)
	}
	var rb *runbook.Runbook
	r.tr.timed(id, root, "runbook.build", func() { rb, err = runbook.Build(p, mig) })
	if err != nil {
		return nil, nil, fmt.Errorf("runbook: %w", err)
	}
	return p, rb, nil
}

// simulate replays the window as /simulate does.
func (r *replayer) simulate(id, root int, req Request, lf *layerFacts) (Facts, error) {
	faults, err := simwindow.ParseFaults(req.Faults)
	if err != nil {
		return Facts{}, err
	}
	_, rb, err := r.runbook(id, root, req, lf)
	if err != nil {
		return Facts{}, err
	}
	profile := schedule.DefaultProfile()
	cfg := simwindow.Config{
		Ctx: context.Background(), Seed: req.SimSeed, Ticks: req.Ticks, LoadNoise: req.Noise,
		StartHour: req.StartHour, Profile: &profile, Faults: faults,
	}
	var sim *simwindow.Simulator
	r.tr.timed(id, root, "simwindow.new", func() { sim, err = simwindow.New(r.engine.Before, rb, cfg) })
	if err != nil {
		return Facts{}, fmt.Errorf("simulate: %w", err)
	}
	var out *simwindow.Outcome
	r.tr.timed(id, root, "simwindow.run", func() { out, err = sim.Run() })
	if err != nil {
		return Facts{}, fmt.Errorf("simulate: %w", err)
	}
	lf.Ticks, lf.Pushes, lf.Replans = out.Summary.Ticks, out.Summary.PushesApplied, out.Summary.Replans
	facts, err := checkSimulate(mustJSON(simulateReply{Steps: len(rb.Steps), Summary: &out.Summary}), req.Ticks)
	return facts, err
}

// tracedNetwork wraps the executor's simulated network with a span
// around every call, under the span of the run that makes it.
type tracedNetwork struct {
	inner  executor.Network
	tr     *tracer
	req    int
	parent int
}

func (n *tracedNetwork) Preflight(st runbook.Step) (err error) {
	n.tr.timed(n.req, n.parent, "executor.preflight", func() { err = n.inner.Preflight(st) })
	return err
}

func (n *tracedNetwork) Push(ctx context.Context, st runbook.Step) (err error) {
	n.tr.timed(n.req, n.parent, "executor.push", func() { err = n.inner.Push(ctx, st) })
	return err
}

func (n *tracedNetwork) Applied(st runbook.Step) (ok bool, err error) {
	n.tr.timed(n.req, n.parent, "executor.applied", func() { ok, err = n.inner.Applied(st) })
	return ok, err
}

func (n *tracedNetwork) Observe(step int) (s executor.Sample, err error) {
	n.tr.timed(n.req, n.parent, "executor.observe", func() { s, err = n.inner.Observe(step) })
	return s, err
}

// execute runs the guarded executor as /execute does, journaled to a
// file of its own, synchronously.
func (r *replayer) execute(id, root int, req Request, lf *layerFacts) (Facts, error) {
	spec := req.Exec
	plan, timed, err := chaos.Split(spec.Chaos)
	if err != nil {
		return Facts{}, err
	}
	_, rb, err := r.runbook(id, root, req, lf)
	if err != nil {
		return Facts{}, err
	}
	profile := schedule.DefaultProfile()
	cfg := simwindow.Config{Seed: spec.Seed, StartHour: spec.StartHour, LoadNoise: spec.LoadNoise, Faults: timed}
	if spec.Diurnal {
		cfg.Profile = &profile
	}
	runID := fmt.Sprintf("x%d", id)
	var net *executor.SimNetwork
	var jr *journal.Journal
	r.tr.timed(id, root, "executor.setup", func() {
		if net, err = executor.NewSimNetwork(r.engine.Before, rb, cfg); err != nil {
			return
		}
		jr, err = journal.Open(filepath.Join(r.dir, runID+".wal"), journal.Options{})
	})
	if err != nil {
		return Facts{}, fmt.Errorf("execute: %w", err)
	}
	runSpan := r.tr.begin(id, root, "executor.run")
	cnet := plan.Instrument(&tracedNetwork{inner: net, tr: r.tr, req: id, parent: runSpan})
	ex, err := executor.New(cnet, rb, executor.Options{
		RunID:         runID,
		Journal:       jr,
		StepDeadline:  time.Duration(spec.StepDeadlineMS) * time.Millisecond,
		Retries:       spec.Retries,
		RetryBackoff:  time.Duration(spec.RetryBackoffMS) * time.Millisecond,
		VerifySamples: spec.VerifySamples,
		GraceSamples:  spec.GraceSamples,
		Seed:          spec.ExecSeed,
		CrashHook:     cnet.Hook(),
	})
	var st *executor.Status
	if err == nil {
		st, err = ex.Run(context.Background())
	}
	r.tr.end(runSpan)
	lf.Records = jr.Records()
	if cerr := jr.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return Facts{}, fmt.Errorf("execute: %w", err)
	}
	lf.Retries, lf.RolledBack = st.Retries, st.RolledBack
	facts, err := checkExecute(executeReply{ID: runID, Finished: true, Status: st})
	return facts, err
}

// campaign submits the jobs to the replayer's own orchestrator and
// waits for the campaign, as POST /campaigns and its polling do.
func (r *replayer) campaign(id, root int, req Request, lf *layerFacts) (Facts, error) {
	specs := make([]campaign.JobSpec, len(req.Jobs))
	for i, j := range req.Jobs {
		specs[i] = campaign.JobSpec{
			Class: classByName[j.Class], Seed: j.Seed,
			Scenario: scenarioByName[j.Scenario], Method: methodByName[j.Method],
		}
	}
	before := r.cache.Stats()
	start := time.Now()
	var c *campaign.Campaign
	var err error
	r.tr.timed(id, root, "campaign.run", func() {
		if c, err = r.orch.Submit(specs); err == nil {
			err = c.Wait(context.Background())
		}
	})
	if err != nil {
		return Facts{}, fmt.Errorf("campaign: %w", err)
	}
	lf.Makespan = time.Since(start)
	after := r.cache.Stats()
	lf.Hits, lf.Misses, lf.Builds = after.Hits-before.Hits, after.Misses-before.Misses, after.Builds-before.Builds
	snap := c.Snapshot()
	for _, j := range snap.Jobs {
		lf.JobMS = append(lf.JobMS, j.DurationMS)
	}
	facts, err := checkCampaign(snap, len(specs))
	return facts, err
}

// seasonOptions are the waveplan options a POST /waves job with this
// request's parameters runs with (campaign defaults: one search worker).
func seasonOptions(req Request) waveplan.Options {
	return waveplan.Options{
		Method:  methodByName[req.Method],
		Seed:    req.AnnealSeed,
		Workers: 1,
		Replay:  req.Wave.Replay,
		Ctx:     context.Background(),
	}
}

// season plans the season as the wave job does.
func (r *replayer) season(id, root int, req Request, lf *layerFacts) (Facts, error) {
	before := waveplan.Stats()
	var res *waveplan.Result
	var err error
	r.tr.timed(id, root, "waveplan.plan", func() { res, err = waveplan.Plan(r.engine, nil, seasonOptions(req)) })
	if err != nil {
		return Facts{}, fmt.Errorf("wave: %w", err)
	}
	after := waveplan.Stats()
	lf.AnnealIters = after.AnnealIterations - before.AnnealIterations
	lf.AnnealAccepts = after.AnnealAccepted - before.AnnealAccepted
	lf.Replays = after.Replays - before.Replays
	facts, err := checkSeason(waveReply{ID: fmt.Sprint(id), State: "done", Finished: true, Season: res})
	return facts, err
}
