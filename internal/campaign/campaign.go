// Package campaign orchestrates batches of upgrade-planning jobs across
// many markets — the operational reality of Section 1 ("network upgrades
// happen every day of the year") that a single synchronous /plan
// endpoint cannot serve. A campaign is a set of jobs, each naming a
// market (class + seed), an upgrade scenario, a tuning method and an
// objective; the orchestrator runs them on a bounded worker pool,
// shares expensively built engines through an LRU single-flight cache,
// retries transient failures with exponential backoff, and aggregates
// recovery ratios, handover statistics and per-job timings as jobs
// complete.
//
// Job lifecycle: queued → running → done | failed | cancelled. Every job
// runs under its own context deadline; cancelling a campaign cancels its
// queued jobs immediately and its running jobs at the next search
// iteration.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"magus/internal/core"
	"magus/internal/evalengine"
	"magus/internal/executor"
	"magus/internal/journal"
	"magus/internal/migrate"
	"magus/internal/runbook"
	"magus/internal/simwindow"
	"magus/internal/topology"
	"magus/internal/waveplan"
)

// JobState is a job's position in the queued → running → terminal
// lifecycle.
type JobState int

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
	JobCancelled
)

// String names the state as exposed over the HTTP API.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// JobStates lists every state in lifecycle order.
var JobStates = []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled}

// Result is a completed job's planning outcome.
type Result struct {
	Recovery       float64 `json:"recovery"`
	UtilityBefore  float64 `json:"utility_before"`
	UtilityUpgrade float64 `json:"utility_upgrade"`
	UtilityAfter   float64 `json:"utility_after"`
	Targets        int     `json:"targets"`
	Neighbors      int     `json:"neighbors"`
	SearchSteps    int     `json:"search_steps"`
	Evaluations    int     `json:"evaluations"`
	// MaxHandoverBurst and SeamlessFraction summarize the gradual
	// migration computed for the plan (Section 6).
	MaxHandoverBurst float64 `json:"max_handover_burst"`
	SeamlessFraction float64 `json:"seamless_fraction"`
	// SearchStats are the search engine's counters for the plan: moves
	// proposed/accepted, delta- vs full-utility evaluations, worker
	// utilization.
	SearchStats *evalengine.StatsSnapshot `json:"search_stats,omitempty"`
	// Sim summarizes the simulated window (simulate jobs only).
	Sim *simwindow.Summary `json:"sim,omitempty"`
	// Wave is the evaluated season (wave jobs only).
	Wave *waveplan.Result `json:"wave,omitempty"`
	// Exec is the guarded run's final status (execute jobs only). A
	// halted-and-rolled-back run is a completed job — the guard worked
	// — reported via Exec.Halted.
	Exec *executor.Status `json:"exec,omitempty"`
}

// Job is one tracked unit of work inside a campaign. All mutable fields
// are guarded by the owning Campaign's mutex; read them via Snapshot.
type Job struct {
	ID   int
	Spec JobSpec

	state    JobState
	attempts int
	err      error
	result   *Result
	queued   time.Time
	started  time.Time
	finished time.Time
	// requeue marks a job cut short by a shutdown: no terminal record
	// was journaled, so a restart replays it (see Drain).
	requeue bool
}

// transientError marks an error as retryable.
type transientError struct{ err error }

func (t transientError) Error() string { return t.err.Error() }
func (t transientError) Unwrap() error { return t.err }

// Transient wraps err so the orchestrator retries the job (with backoff,
// up to its attempt budget) instead of failing it outright. Use it for
// failures expected to heal — resource exhaustion, a flaky backend —
// not for validation errors.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return transientError{err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// Transient.
func IsTransient(err error) bool {
	var t transientError
	return errors.As(err, &t)
}

// BuildFunc builds (or fetches) the engine for a market. Env.Engine is
// one: magusd and the HTTP server's default orchestrator build through
// their Env's EngineCache.
type BuildFunc func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error)

// Config tunes an Orchestrator. The zero value of every field selects a
// sensible default except Build, which is required.
type Config struct {
	// Build constructs engines for job markets (required).
	Build BuildFunc
	// Cache, when set, is surfaced in Metrics so operators can watch
	// hit rates; the orchestrator itself only reads its Stats. Wire the
	// same cache into Build to actually share engines.
	Cache *EngineCache
	// Workers bounds concurrent jobs (default runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth bounds queued jobs across campaigns (default 1024);
	// Submit returns ErrQueueFull beyond it.
	QueueDepth int
	// MaxAttempts bounds tries per job including the first (default 3).
	MaxAttempts int
	// RetryBackoff is the initial delay before a retry, doubling per
	// attempt (default 50ms).
	RetryBackoff time.Duration
	// SkipMigration skips the gradual-migration pass after each plan,
	// leaving the handover fields of Result zero. Plans are what
	// throughput benchmarks meter; migration is bookkeeping on top.
	SkipMigration bool
	// SearchWorkers is the default in-search candidate-scoring
	// parallelism for jobs that leave JobSpec.Workers zero (default 1:
	// campaigns already parallelize across jobs, so per-search
	// parallelism is opt-in).
	SearchWorkers int
	// Journal, when set, records every job's lifecycle
	// (submitted/attempt/result) as a write-ahead log: a campaign is
	// durably journaled before Submit returns, and after a crash
	// ReplayJournal identifies the jobs that never reached a terminal
	// state so Resubmit can re-enqueue them.
	Journal *journal.Journal
	// Epoch is the orchestrator's fencing token over Journal (claim one
	// with Journal.ClaimEpoch before New). When nonzero, every journal
	// record carries it, and Submit/Resubmit and terminal-result appends
	// first verify it is still the journal's current epoch: an
	// orchestrator superseded by a later claimant — a replacement process
	// over the same log, a fleet coordinator that re-placed its leases —
	// is fenced, refusing new admissions with journal.ErrStaleEpoch and
	// suppressing terminal records so it cannot double-commit work that
	// now belongs to someone else. Zero disables fencing.
	Epoch int64
	// BreakerThreshold is the number of consecutive engine-build
	// failures per market before the build circuit opens and jobs
	// against that market fail fast with ErrCircuitOpen (0 = default 5,
	// negative = breaker disabled).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects builds before
	// admitting a half-open probe (default 30s).
	BreakerCooldown time.Duration
	// CompactRecords triggers a journal compaction when a campaign
	// finishes with more than this many records in the log (default
	// 4096).
	CompactRecords int64
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.SearchWorkers <= 0 {
		c.SearchWorkers = 1
	}
	if c.CompactRecords <= 0 {
		c.CompactRecords = 4096
	}
}

// ErrQueueFull reports that Submit would exceed the orchestrator's
// queue bound; the campaign was not accepted.
var ErrQueueFull = errors.New("campaign: job queue full")

// ErrDraining reports that the orchestrator is shutting down gracefully
// and no longer admits campaigns; the HTTP layer maps it to 503 with a
// Retry-After.
var ErrDraining = errors.New("campaign: orchestrator draining")

// Orchestrator owns the worker pool and the campaigns submitted to it.
// Construct with New and release with Close.
type Orchestrator struct {
	cfg     Config
	breaker *breaker
	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan queued
	wg      sync.WaitGroup
	// draining stops admission and makes workers park queued jobs for
	// journal replay instead of starting them; shuttingDown additionally
	// suppresses terminal journal records for shutdown-cancelled jobs so
	// a restart re-runs them.
	draining     atomic.Bool
	shuttingDown atomic.Bool
	compacting   atomic.Bool
	// fencedResults counts terminal journal records suppressed because
	// the orchestrator's epoch went stale (see Config.Epoch).
	fencedResults atomic.Int64

	mu        sync.Mutex
	campaigns map[string]*Campaign
	nextID    int
	jobCounts map[JobState]int64
	// durations keeps recent finished-job latencies for the quantile
	// metrics, bounded to the last maxDurations samples.
	durations []time.Duration
	// searchStats accumulates the per-plan engine counters of every
	// completed job (see Metrics.Search).
	searchStats  evalengine.StatsSnapshot
	searchedJobs int64
}

type queued struct {
	c *Campaign
	j *Job
}

const maxDurations = 4096

// defaultJobTimeout is the per-job deadline when a spec sets none.
const defaultJobTimeout = 5 * time.Minute

// New starts an orchestrator and its workers.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("campaign: Config.Build is required")
	}
	cfg.applyDefaults()
	ctx, stop := context.WithCancel(context.Background())
	o := &Orchestrator{
		cfg:       cfg,
		baseCtx:   ctx,
		stop:      stop,
		queue:     make(chan queued, cfg.QueueDepth),
		campaigns: make(map[string]*Campaign),
		jobCounts: make(map[JobState]int64),
	}
	if cfg.BreakerThreshold >= 0 {
		o.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		o.cfg.Build = o.breaker.wrapBuild(o.cfg.Build)
	}
	o.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go o.worker()
	}
	return o, nil
}

// Close cancels every campaign and stops the workers, blocking until
// they exit. The orchestrator accepts no work afterwards. With a
// journal configured, jobs cut short here leave no terminal record, so
// a restart re-runs them; use Drain first to let running jobs finish.
func (o *Orchestrator) Close() {
	o.shuttingDown.Store(true)
	o.draining.Store(true)
	o.mu.Lock()
	cs := make([]*Campaign, 0, len(o.campaigns))
	for _, c := range o.campaigns {
		cs = append(cs, c)
	}
	o.mu.Unlock()
	for _, c := range cs {
		c.Cancel("orchestrator closed")
	}
	o.stop()
	o.wg.Wait()
}

// Submit validates specs, creates a campaign and enqueues its jobs.
// Rejects the whole batch with ErrQueueFull if the queue cannot take
// every job: partial admission would leave campaigns that can never
// finish honestly. With a journal configured, every job is durably
// recorded (fsynced) before Submit returns: an accepted campaign
// survives a crash.
func (o *Orchestrator) Submit(specs []JobSpec) (*Campaign, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("campaign: no jobs")
	}
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	if o.draining.Load() {
		return nil, ErrDraining
	}
	select {
	case <-o.baseCtx.Done():
		return nil, fmt.Errorf("campaign: orchestrator closed")
	default:
	}

	ctx, cancel := context.WithCancelCause(o.baseCtx)
	now := time.Now()
	c := &Campaign{
		orch:    o,
		ctx:     ctx,
		cancel:  cancel,
		created: now,
		done:    make(chan struct{}),
		pending: len(specs),
	}
	c.jobs = make([]*Job, len(specs))
	for i, sp := range specs {
		c.jobs[i] = &Job{ID: i, Spec: sp, state: JobQueued, queued: now}
	}

	o.mu.Lock()
	o.nextID++
	c.ID = fmt.Sprintf("c%d", o.nextID)
	o.campaigns[c.ID] = c
	o.jobCounts[JobQueued] += int64(len(specs))
	o.mu.Unlock()

	// Journal before enqueueing: once a worker can see a job, its
	// submitted record must already be on disk, or a crash could replay
	// nothing for a job that ran.
	if err := o.journalSubmitted(c); err != nil {
		o.mu.Lock()
		delete(o.campaigns, c.ID)
		o.jobCounts[JobQueued] -= int64(len(specs))
		o.mu.Unlock()
		return nil, err
	}

	for _, j := range c.jobs {
		select {
		case o.queue <- queued{c, j}:
		default:
			// Undo the admission: cancel the campaign (queued jobs flip to
			// cancelled, including any already enqueued, with terminal
			// journal records so replay skips them) and drop it.
			c.Cancel("queue full")
			o.mu.Lock()
			delete(o.campaigns, c.ID)
			o.mu.Unlock()
			return nil, ErrQueueFull
		}
	}
	return c, nil
}

// Lookup returns the campaign with the given id.
func (o *Orchestrator) Lookup(id string) (*Campaign, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.campaigns[id]
	return c, ok
}

// CampaignIDs lists known campaigns, oldest first.
func (o *Orchestrator) CampaignIDs() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := make([]string, 0, len(o.campaigns))
	for id := range o.campaigns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return len(ids[i]) < len(ids[j]) || (len(ids[i]) == len(ids[j]) && ids[i] < ids[j])
	})
	return ids
}

// Metrics is the orchestrator-wide counter snapshot exposed on /healthz
// and on every campaign status response.
type Metrics struct {
	Workers    int              `json:"workers"`
	QueueDepth int              `json:"queue_depth"`
	QueueCap   int              `json:"queue_cap"`
	Jobs       map[string]int64 `json:"jobs"`
	// Queued and InFlight are the current not-yet-running and running
	// job counts, captured under the same lock as Jobs so the pair is an
	// atomic snapshot (capacity-aware fleet placement subtracts them from
	// Workers; summing the Jobs map would mix current and lifetime-total
	// states).
	Queued   int64       `json:"queued"`
	InFlight int64       `json:"in_flight"`
	P50MS    float64     `json:"job_latency_p50_ms"`
	P95MS    float64     `json:"job_latency_p95_ms"`
	Cache    *CacheStats `json:"engine_cache,omitempty"`
	// Search aggregates the evalengine counters over every completed
	// job's plan (absent until the first job completes).
	Search *evalengine.StatsSnapshot `json:"search,omitempty"`
	// Draining reports that the orchestrator no longer admits campaigns.
	Draining bool `json:"draining,omitempty"`
	// Journal is the write-ahead log's record count (absent when no
	// journal is configured); JournalErrors counts failed appends,
	// flushes and fsyncs — the dying-disk signal.
	Journal       *int64 `json:"journal_records,omitempty"`
	JournalErrors *int64 `json:"journal_append_errors,omitempty"`
	// Breaker is the engine-build circuit breaker snapshot (absent when
	// disabled).
	Breaker *BreakerStats `json:"build_breaker,omitempty"`
	// Epoch is the orchestrator's journal fencing token (absent when
	// unfenced); FencedResults counts terminal records suppressed because
	// the token had gone stale.
	Epoch         int64 `json:"epoch,omitempty"`
	FencedResults int64 `json:"journal_fenced,omitempty"`
}

// Metrics snapshots the orchestrator counters.
func (o *Orchestrator) Metrics() Metrics {
	o.mu.Lock()
	m := Metrics{
		Workers:    o.cfg.Workers,
		QueueDepth: len(o.queue),
		QueueCap:   o.cfg.QueueDepth,
		Jobs:       make(map[string]int64, len(JobStates)),
		Draining:   o.draining.Load(),
	}
	for _, s := range JobStates {
		m.Jobs[s.String()] = o.jobCounts[s]
	}
	m.Queued = o.jobCounts[JobQueued]
	m.InFlight = o.jobCounts[JobRunning]
	if o.searchedJobs > 0 {
		agg := o.searchStats
		m.Search = &agg
	}
	durs := append([]time.Duration(nil), o.durations...)
	o.mu.Unlock()

	m.P50MS, m.P95MS = quantilesMS(durs)
	if o.cfg.Cache != nil {
		st := o.cfg.Cache.Stats()
		m.Cache = &st
	}
	if o.cfg.Journal != nil {
		n := o.cfg.Journal.Records()
		m.Journal = &n
		e := o.cfg.Journal.AppendErrors()
		m.JournalErrors = &e
	}
	if o.breaker != nil {
		st := o.breaker.stats()
		m.Breaker = &st
	}
	m.Epoch = o.cfg.Epoch
	m.FencedResults = o.fencedResults.Load()
	return m
}

// quantilesMS returns the p50 and p95 of durs in milliseconds (0, 0 when
// empty).
func quantilesMS(durs []time.Duration) (p50, p95 float64) {
	if len(durs) == 0 {
		return 0, 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(durs)-1))
		return float64(durs[i]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.95)
}

// transition moves a job between states under the campaign lock and
// keeps the orchestrator-wide per-state counters in step.
func (o *Orchestrator) transition(j *Job, to JobState) {
	from := j.state
	j.state = to
	o.mu.Lock()
	o.jobCounts[from]--
	o.jobCounts[to]++
	o.mu.Unlock()
}

func (o *Orchestrator) recordDuration(d time.Duration) {
	o.mu.Lock()
	o.durations = append(o.durations, d)
	if len(o.durations) > maxDurations {
		o.durations = o.durations[len(o.durations)-maxDurations:]
	}
	o.mu.Unlock()
}

func (o *Orchestrator) worker() {
	defer o.wg.Done()
	for {
		select {
		case <-o.baseCtx.Done():
			return
		case q := <-o.queue:
			if o.draining.Load() {
				// Park the job: it stays queued with no terminal journal
				// record, so a restart replays it.
				continue
			}
			o.runJob(q.c, q.j)
		}
	}
}

// runJob drives one job through its lifecycle.
func (o *Orchestrator) runJob(c *Campaign, j *Job) {
	c.mu.Lock()
	if j.state != JobQueued {
		// Cancelled while waiting in the queue; already accounted.
		c.mu.Unlock()
		return
	}
	o.transition(j, JobRunning)
	j.started = time.Now()
	c.mu.Unlock()

	timeout := j.Spec.Timeout
	if timeout <= 0 {
		timeout = defaultJobTimeout
	}
	ctx, cancel := context.WithTimeout(c.ctx, timeout)
	res, attempts, err := o.attempt(ctx, c.ID, j.ID, j.Spec)
	cancel()

	c.mu.Lock()
	j.attempts = attempts
	j.finished = time.Now()
	var final JobState
	switch {
	case err == nil:
		j.result = res
		final = JobDone
		o.transition(j, JobDone)
		if res.SearchStats != nil {
			o.mu.Lock()
			o.searchStats.Merge(*res.SearchStats)
			o.searchedJobs++
			o.mu.Unlock()
		}
	case c.ctx.Err() != nil:
		// The whole campaign was cancelled; the job did not fail on its
		// own merits.
		j.err = context.Cause(c.ctx)
		final = JobCancelled
		o.transition(j, JobCancelled)
	default:
		j.err = err
		final = JobFailed
		o.transition(j, JobFailed)
	}
	// A job cancelled by a shutdown keeps no terminal record: the
	// restart should run it again. Any other outcome is journaled —
	// outside the lock (appends can fsync). The job counts as
	// unjournaled until then, so the campaign only reads as finished
	// once every result is in the log, even when another job finishes
	// while this append is in flight.
	skipJournal := final == JobCancelled && o.shuttingDown.Load()
	j.requeue = skipJournal
	jerr := j.err
	c.unjournaled++
	c.mu.Unlock()
	if !skipJournal {
		o.journalResult(c.ID, j.ID, final, jerr)
	}
	c.mu.Lock()
	c.unjournaled--
	c.finishLocked()
	c.mu.Unlock()
	o.recordDuration(j.finished.Sub(j.started))
}

// attempt runs the job's planning work with bounded retries: transient
// failures back off exponentially until the attempt budget or the
// context runs out. The backoff wait selects on the job context (which
// derives from the campaign and orchestrator contexts), so a cancelled
// job stops waiting immediately.
func (o *Orchestrator) attempt(ctx context.Context, campaignID string, jobID int, sp JobSpec) (*Result, int, error) {
	backoff := o.cfg.RetryBackoff
	for n := 1; ; n++ {
		o.journalAttempt(campaignID, jobID, n)
		res, err := o.execute(ctx, sp)
		if err == nil {
			return res, n, nil
		}
		if ctx.Err() != nil || n >= o.cfg.MaxAttempts || !IsTransient(err) {
			return nil, n, err
		}
		select {
		case <-ctx.Done():
			return nil, n, ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// execute is one attempt: fetch the engine, plan the mitigation, and
// (unless disabled) schedule the gradual migration for its handover
// statistics.
func (o *Orchestrator) execute(ctx context.Context, sp JobSpec) (*Result, error) {
	engine, err := o.cfg.Build(ctx, sp.Class, sp.Seed)
	if err != nil {
		return nil, fmt.Errorf("build engine: %w", err)
	}
	workers := sp.Workers
	if workers <= 0 {
		workers = o.cfg.SearchWorkers
	}
	if sp.Kind == KindWave {
		season, err := waveSeason(ctx, engine, sp, workers)
		if err != nil {
			return nil, fmt.Errorf("wave: %w", err)
		}
		res := &Result{
			UtilityBefore: season.UtilityBefore,
			UtilityAfter:  season.MinWaveUtility,
			Targets:       len(season.Sectors),
			Wave:          season,
		}
		// Season-level recovery and C_upgrade report the worst wave.
		first := true
		for _, w := range season.Waves {
			if w.Cancelled {
				continue
			}
			if first || w.Recovery < res.Recovery {
				res.Recovery = w.Recovery
			}
			if first || w.UtilityUpgrade < res.UtilityUpgrade {
				res.UtilityUpgrade = w.UtilityUpgrade
			}
			first = false
		}
		return res, nil
	}
	plan, err := engine.MitigatePlan(core.MitigateRequest{
		Ctx:        ctx,
		Scenario:   sp.Scenario,
		Method:     sp.Method,
		Util:       UtilityByName[sp.Utility],
		Workers:    workers,
		AnnealSeed: sp.AnnealSeed,
	})
	if err != nil {
		return nil, err
	}
	stats := plan.Search.Stats
	res := &Result{
		Recovery:       plan.RecoveryRatio(),
		UtilityBefore:  plan.UtilityBefore,
		UtilityUpgrade: plan.UtilityUpgrade,
		UtilityAfter:   plan.UtilityAfter,
		Targets:        len(plan.Targets),
		Neighbors:      len(plan.Neighbors),
		SearchSteps:    len(plan.Search.Steps),
		Evaluations:    plan.Search.Evaluations,
		SearchStats:    &stats,
	}
	simulate := sp.Kind == KindSimulate
	liveExec := sp.Kind == KindExecute
	if !o.cfg.SkipMigration || simulate || liveExec {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mig, err := plan.GradualMigration(migrate.Options{})
		if err != nil {
			return nil, fmt.Errorf("migrate: %w", err)
		}
		res.MaxHandoverBurst = mig.MaxSimultaneousHandovers
		res.SeamlessFraction = mig.SeamlessFraction()
		if simulate || liveExec {
			rb, err := runbook.Build(plan, mig)
			if err != nil {
				return nil, fmt.Errorf("runbook: %w", err)
			}
			if simulate {
				out, err := sp.Sim.Run(ctx, engine.Before, rb, workers)
				if err != nil {
					return nil, fmt.Errorf("simulate: %w", err)
				}
				res.Sim = &out.Summary
			} else {
				st, err := executeRunbook(ctx, engine, rb, sp)
				if err != nil {
					return nil, fmt.Errorf("execute: %w", err)
				}
				res.Exec = st
			}
		}
	}
	return res, nil
}

// executeRunbook drives the runbook through the guarded executor
// against a live simulated network per the job's ExecSpec. The job runs
// unjournaled (a campaign attempt is retried whole, not resumed
// mid-runbook; the standalone /execute surface journals). The returned
// status reports a halted-and-rolled-back run with a nil error: the
// guard refusing to finish the upgrade is a job outcome, not a job
// failure.
func executeRunbook(ctx context.Context, engine *core.Engine, rb *runbook.Runbook, sp JobSpec) (*executor.Status, error) {
	net, opts, err := sp.Exec.Network(engine.Before, rb)
	if err != nil {
		return nil, err
	}
	ex, err := executor.New(net, rb, opts)
	if err != nil {
		return nil, err
	}
	return ex.Run(ctx)
}

// waveSeason plans the upgrade season described by the job's WaveSpec.
func waveSeason(ctx context.Context, engine *core.Engine, sp JobSpec, workers int) (*waveplan.Result, error) {
	opts, err := sp.Wave.options(ctx, sp, workers)
	if err != nil {
		return nil, err
	}
	var sectors []int
	if sp.Wave != nil && len(sp.Wave.Sectors) > 0 {
		sectors = append([]int(nil), sp.Wave.Sectors...)
		for _, s := range sectors {
			if s >= engine.Net.NumSectors() {
				return nil, fmt.Errorf("sector %d out of range [0, %d)", s, engine.Net.NumSectors())
			}
		}
	}
	return waveplan.Plan(engine, sectors, opts)
}

// Campaign is one submitted batch of jobs.
type Campaign struct {
	ID      string
	orch    *Orchestrator
	ctx     context.Context
	cancel  context.CancelCauseFunc
	created time.Time

	mu      sync.Mutex
	jobs    []*Job
	pending int
	// unjournaled counts terminal jobs whose result record may still be
	// on its way into the journal; done waits for them too.
	unjournaled int
	done        chan struct{}
}

// Cancel aborts the campaign: queued jobs flip to cancelled immediately,
// running jobs at their next search iteration. Idempotent. A
// deliberately cancelled job is terminal in the journal (a restart does
// not resurrect it) unless the orchestrator is shutting down, in which
// case the job replays instead.
func (c *Campaign) Cancel(reason string) {
	c.mu.Lock()
	flipped, err := c.cancelLocked(reason)
	c.mu.Unlock()
	if len(flipped) == 0 {
		return
	}
	for _, j := range flipped {
		c.orch.journalResult(c.ID, j.ID, JobCancelled, err)
	}
	c.mu.Lock()
	c.unjournaled -= len(flipped)
	c.finishLocked()
	c.mu.Unlock()
}

// cancelLocked cancels the campaign and flips queued jobs to cancelled,
// returning the jobs whose terminal state still needs journaling (the
// caller must do so after releasing c.mu — journal appends can fsync —
// then take them off unjournaled and call finishLocked).
func (c *Campaign) cancelLocked(reason string) ([]*Job, error) {
	if c.ctx.Err() != nil {
		return nil, nil
	}
	err := fmt.Errorf("campaign cancelled: %s", reason)
	c.cancel(err)
	// Flip still-queued jobs here rather than when a worker drains them,
	// so status reads reflect the cancel at once; workers skip any job no
	// longer queued.
	now := time.Now()
	shutdown := c.orch.shuttingDown.Load()
	var flipped []*Job
	for _, j := range c.jobs {
		if j.state == JobQueued {
			j.err = err
			j.finished = now
			j.requeue = shutdown
			c.orch.transition(j, JobCancelled)
			if !shutdown {
				flipped = append(flipped, j)
			}
		}
	}
	c.unjournaled += len(flipped)
	c.finishLocked()
	return flipped, err
}

// finishLocked recounts unfinished jobs and closes done when none are
// left and every terminal result is journaled.
func (c *Campaign) finishLocked() {
	n := 0
	for _, j := range c.jobs {
		if j.state == JobQueued || j.state == JobRunning {
			n++
		}
	}
	c.pending = n
	if n == 0 && c.unjournaled == 0 {
		select {
		case <-c.done:
		default:
			close(c.done)
			// First completion of this campaign: a natural moment to shed
			// dead journal weight. Runs async — finishLocked holds c.mu.
			go c.orch.maybeCompact()
		}
	}
}

// Done returns a channel closed once every job reached a terminal state.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Wait blocks until the campaign finishes or ctx expires.
func (c *Campaign) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// JobSnapshot is the immutable status view of one job.
type JobSnapshot struct {
	ID         int     `json:"id"`
	Class      string  `json:"class"`
	Seed       int64   `json:"seed"`
	Scenario   string  `json:"scenario"`
	Method     string  `json:"method"`
	Utility    string  `json:"utility"`
	State      string  `json:"state"`
	Attempts   int     `json:"attempts,omitempty"`
	Error      string  `json:"error,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	Result     *Result `json:"result,omitempty"`
}

// Snapshot is the status view of a campaign: per-job states and results
// plus the aggregates the HTTP API serves incrementally while the
// campaign runs.
type Snapshot struct {
	ID        string         `json:"id"`
	Created   time.Time      `json:"created"`
	Finished  bool           `json:"finished"`
	Cancelled bool           `json:"cancelled"`
	Counts    map[string]int `json:"counts"`
	// MeanRecovery averages the recovery ratio over done jobs (0 until
	// the first one completes).
	MeanRecovery float64       `json:"mean_recovery"`
	P50MS        float64       `json:"job_latency_p50_ms"`
	P95MS        float64       `json:"job_latency_p95_ms"`
	Jobs         []JobSnapshot `json:"jobs"`
	// Search aggregates the evalengine counters over done jobs (absent
	// until the first completes).
	Search *evalengine.StatsSnapshot `json:"search,omitempty"`
}

// Snapshot captures the campaign's current status.
func (c *Campaign) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		ID:        c.ID,
		Created:   c.created,
		Cancelled: c.ctx.Err() != nil,
		Counts:    make(map[string]int, len(JobStates)),
		Jobs:      make([]JobSnapshot, len(c.jobs)),
	}
	for _, st := range JobStates {
		s.Counts[st.String()] = 0
	}
	var durs []time.Duration
	var recovered float64
	doneJobs := 0
	for i, j := range c.jobs {
		js := JobSnapshot{
			ID:       j.ID,
			Class:    j.Spec.Class.String(),
			Seed:     j.Spec.Seed,
			Scenario: j.Spec.Scenario.Short(),
			Method:   j.Spec.Method.String(),
			Utility:  j.Spec.Utility,
			State:    j.state.String(),
			Attempts: j.attempts,
			Result:   j.result,
		}
		if j.err != nil {
			js.Error = j.err.Error()
		}
		if !j.finished.IsZero() && !j.started.IsZero() {
			d := j.finished.Sub(j.started)
			js.DurationMS = float64(d) / float64(time.Millisecond)
			durs = append(durs, d)
		}
		if j.state == JobDone && j.result != nil {
			recovered += j.result.Recovery
			doneJobs++
			if j.result.SearchStats != nil {
				if s.Search == nil {
					s.Search = &evalengine.StatsSnapshot{}
				}
				s.Search.Merge(*j.result.SearchStats)
			}
		}
		s.Counts[j.state.String()]++
		s.Jobs[i] = js
	}
	s.Finished = c.pending == 0
	if doneJobs > 0 {
		s.MeanRecovery = recovered / float64(doneJobs)
	}
	s.P50MS, s.P95MS = quantilesMS(durs)
	return s
}
