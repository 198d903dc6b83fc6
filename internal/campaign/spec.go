package campaign

import (
	"context"
	"fmt"
	"time"

	"magus/internal/chaos"
	"magus/internal/core"
	"magus/internal/executor"
	"magus/internal/netmodel"
	"magus/internal/runbook"
	"magus/internal/schedule"
	"magus/internal/simwindow"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
	"magus/internal/waveplan"
)

// This file is the one place that decides whether a job, simulate,
// execute or wave spec is valid and how it becomes a run. Each nested
// spec kind has one function that both validates it and builds its run
// configuration; JobSpec.Validate calls those functions, and so do the
// campaign workers, the /simulate and /execute endpoints, the fleet
// coordinator and journal recovery.

// UtilityByName maps the wire names of the objectives to their
// functions; the empty name selects performance, matching the /plan
// endpoint's default.
var UtilityByName = map[string]utility.Func{
	"":            utility.Performance,
	"performance": utility.Performance,
	"coverage":    utility.Coverage,
}

// Job kinds.
const (
	// KindPlan plans a mitigation and its gradual migration (the
	// default; "" means the same).
	KindPlan = "plan"
	// KindSimulate additionally executes the resulting runbook through
	// the upgrade-window simulator.
	KindSimulate = "simulate"
	// KindWave schedules a whole upgrade season: the wave scheduler
	// partitions the market's upgrade set into conflict-free waves and
	// evaluates each (see internal/waveplan).
	KindWave = "wave"
	// KindExecute drives the resulting runbook through the guarded
	// executor against a live simulated network: checkpointed pushes,
	// KPI watchdog against the f(C_after) floor, automatic rollback on
	// breach (see internal/executor).
	KindExecute = "execute"
)

// WaveSpec configures a wave job's season. JSON tags make it the wire
// form too; zero fields select the scheduler defaults. The job's
// Method/Utility/Workers/AnnealSeed fields apply to the
// per-wave searches and the anneal, as on plan jobs.
type WaveSpec struct {
	// Sectors is the upgrade set (empty = the market's whole tuning
	// area).
	Sectors []int `json:"sectors,omitempty"`
	// CrewsPerWave, MaxWaves and Blackout are the season's calendar
	// constraints (see waveplan.Constraints).
	CrewsPerWave int   `json:"crews_per_wave,omitempty"`
	MaxWaves     int   `json:"max_waves,omitempty"`
	Blackout     []int `json:"blackout,omitempty"`
	// OverlapThreshold and MarginDB shape the co-upgrade conflict graph.
	OverlapThreshold float64 `json:"overlap_threshold,omitempty"`
	MarginDB         float64 `json:"margin_db,omitempty"`
	// AnnealIters bounds the wave-assignment anneal.
	AnnealIters int `json:"anneal_iters,omitempty"`
	// RollingRecovery is the rolling-vs-stopping semantics threshold.
	RollingRecovery float64 `json:"rolling_recovery,omitempty"`
	// Replay plays each wave's runbook through a simwindow; a floor
	// breach halts the season and emits the rollback runbook.
	Replay bool `json:"replay,omitempty"`
	// ReplayTicks overrides the replay window length.
	ReplayTicks int `json:"replay_ticks,omitempty"`
	// Faults is a fault script injected into every wave's replay.
	Faults string `json:"faults,omitempty"`
	// HaltBelowTicks is the consecutive below-floor replay ticks that
	// halt the season.
	HaltBelowTicks int `json:"halt_below_ticks,omitempty"`
}

// SimSpec configures a simulate job's window. JSON tags make it the
// wire form too.
type SimSpec struct {
	// Seed drives the simulator's rand.Rand (load noise).
	Seed int64 `json:"seed"`
	// Ticks is the window length (0 = one tick per push plus settle).
	Ticks int `json:"ticks"`
	// Faults is a fault script in simwindow.ParseFaults syntax. Its
	// push-delay@STEP+N holds a push N ticks; ExecSpec.Chaos's
	// push-delay counts milliseconds instead.
	Faults string `json:"faults"`
	// Diurnal evolves load along schedule.DefaultProfile.
	Diurnal bool `json:"diurnal"`
	// StartHour is the local hour at tick 0 (default 2).
	StartHour float64 `json:"start_hour"`
	// LoadNoise is the per-tick lognormal load jitter sigma.
	LoadNoise float64 `json:"load_noise"`
	// Replan enables the search-based replanner on floor breaches.
	Replan bool `json:"replan"`
}

// ExecSpec configures an execute job's guarded run. JSON tags make it
// the wire form too; zero fields select the executor defaults.
type ExecSpec struct {
	// Seed drives the live session's rand.Rand (load noise).
	Seed int64 `json:"seed"`
	// Chaos is a combined fault script in chaos.Split syntax: delivery
	// faults (push-error@2x2, kpi-breach@3, crash-after-commit@1, ...)
	// plus simwindow's timed faults (sector-down@TICK:SECTOR, ...).
	// Its push-delay@STEP+N stalls a push N milliseconds (SimSpec.Faults'
	// counts ticks); simwindow's push-fail is rejected, since the live
	// session runs no push faults.
	Chaos string `json:"chaos,omitempty"`
	// Diurnal evolves load along schedule.DefaultProfile.
	Diurnal bool `json:"diurnal,omitempty"`
	// StartHour is the local hour at tick 0 (default 2).
	StartHour float64 `json:"start_hour,omitempty"`
	// LoadNoise is the per-tick lognormal load jitter sigma.
	LoadNoise float64 `json:"load_noise,omitempty"`
	// StepDeadlineMS bounds one step's push-plus-retries.
	StepDeadlineMS int64 `json:"step_deadline_ms,omitempty"`
	// Retries is the per-step push retry budget.
	Retries int `json:"retries,omitempty"`
	// RetryBackoffMS is the initial retry delay (doubles, jittered).
	RetryBackoffMS int64 `json:"retry_backoff_ms,omitempty"`
	// VerifySamples and GraceSamples tune the KPI watchdog.
	VerifySamples int `json:"verify_samples,omitempty"`
	GraceSamples  int `json:"grace_samples,omitempty"`
	// ExecSeed seeds the executor's retry jitter.
	ExecSeed int64 `json:"exec_seed,omitempty"`
}

// JobSpec names one unit of planning work: which market, which upgrade,
// which strategy.
type JobSpec struct {
	Class    topology.AreaClass
	Seed     int64
	Scenario upgrade.Scenario
	Method   core.Method
	// Utility is the objective's wire name ("", "performance",
	// "coverage"); see UtilityByName.
	Utility string
	// Timeout bounds the job's run (0 uses the orchestrator default).
	Timeout time.Duration
	// Workers is the candidate-scoring parallelism inside this job's
	// search (see search.Options.Workers): 0 inherits the orchestrator's
	// SearchWorkers, 1 scores on the job's own goroutine.
	Workers int
	// AnnealSeed seeds the Annealed method's random walk (0 = default).
	AnnealSeed int64
	// Kind selects the work: KindPlan (or "") plans; KindSimulate also
	// executes the runbook through the simulator; KindWave schedules an
	// upgrade season; KindExecute drives the runbook through the guarded
	// executor.
	Kind string
	// Sim tunes a simulate job (nil = simulator defaults).
	Sim *SimSpec
	// Wave tunes a wave job (nil = scheduler defaults).
	Wave *WaveSpec
	// Exec tunes an execute job (nil = executor defaults).
	Exec *ExecSpec
}

// Validate rejects a spec the workers could only fail on. A nested
// sim, wave or exec spec is checked by the same function that builds
// its run, so a spec Validate accepts never fails on its own
// parameters; it can still fail against its market (a fault naming a
// sector the market lacks, say).
func (sp JobSpec) Validate() error {
	switch sp.Class {
	case topology.Rural, topology.Suburban, topology.Urban:
	default:
		return fmt.Errorf("campaign: unknown class %d", int(sp.Class))
	}
	switch sp.Scenario {
	case upgrade.SingleSector, upgrade.FullSite, upgrade.FourCorners:
	default:
		return fmt.Errorf("campaign: unknown scenario %d", int(sp.Scenario))
	}
	switch sp.Method {
	case core.PowerOnly, core.TiltOnly, core.Joint, core.NaiveBaseline, core.Annealed:
	default:
		return fmt.Errorf("campaign: unknown method %d", int(sp.Method))
	}
	if _, ok := UtilityByName[sp.Utility]; !ok {
		return fmt.Errorf("campaign: unknown utility %q", sp.Utility)
	}
	if sp.Timeout < 0 {
		return fmt.Errorf("campaign: negative timeout %v", sp.Timeout)
	}
	if sp.Workers < 0 {
		return fmt.Errorf("campaign: negative workers %d", sp.Workers)
	}
	kind := sp.Kind
	if kind == "" {
		kind = KindPlan
	}
	switch {
	case sp.Sim != nil && kind != KindSimulate:
		return fmt.Errorf("campaign: sim config on a %q job", kind)
	case sp.Wave != nil && kind != KindWave:
		return fmt.Errorf("campaign: wave config on a %q job", kind)
	case sp.Exec != nil && kind != KindExecute:
		return fmt.Errorf("campaign: exec config on a %q job", kind)
	}
	var err error
	switch kind {
	case KindPlan:
	case KindSimulate:
		_, err = sp.Sim.window(context.Background(), 0)
	case KindWave:
		_, err = sp.Wave.options(context.Background(), sp, 0)
	case KindExecute:
		_, _, err = sp.Exec.config()
	default:
		return fmt.Errorf("campaign: unknown kind %q", sp.Kind)
	}
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// diurnal returns the default diurnal profile when on is set, nil
// (constant load) otherwise.
func diurnal(on bool) *schedule.DiurnalProfile {
	if !on {
		return nil
	}
	profile := schedule.DefaultProfile()
	return &profile
}

// Run simulates rb from base through the window sp configures: the
// batch run behind a simulate job and the /simulate endpoint. A nil
// spec selects the simulator defaults. ctx aborts the window between
// ticks; workers is the replanner's scoring parallelism.
func (sp *SimSpec) Run(ctx context.Context, base *netmodel.State, rb *runbook.Runbook, workers int) (*simwindow.Outcome, error) {
	cfg, err := sp.window(ctx, workers)
	if err != nil {
		return nil, err
	}
	sim, err := simwindow.New(base, rb, cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// window validates sp and builds the window configuration it runs
// under: the parsed fault script, the diurnal profile and the
// replanner.
func (sp *SimSpec) window(ctx context.Context, workers int) (simwindow.Config, error) {
	if sp == nil {
		sp = &SimSpec{}
	}
	faults, err := simwindow.ParseFaults(sp.Faults)
	if err != nil {
		return simwindow.Config{}, err
	}
	cfg := simwindow.Config{
		Seed:      sp.Seed,
		Ticks:     sp.Ticks,
		StartHour: sp.StartHour,
		Profile:   diurnal(sp.Diurnal),
		LoadNoise: sp.LoadNoise,
		Faults:    faults,
		Replan:    sp.Replan,
		Workers:   workers,
		Ctx:       ctx,
	}
	return cfg, cfg.Validate()
}

// Network validates an execute spec and builds its guarded run: the
// live simulated network executing rb from base, wrapped in the spec's
// delivery faults, and the executor options with the fault plan's
// crash hook wired in. A nil spec selects the executor defaults with
// no faults. The session takes no context: a run outlives the request
// that started it, and the context handed to the executor stops it.
func (sp *ExecSpec) Network(base *netmodel.State, rb *runbook.Runbook) (*chaos.Network, executor.Options, error) {
	if sp == nil {
		sp = &ExecSpec{}
	}
	plan, cfg, err := sp.config()
	if err != nil {
		return nil, executor.Options{}, err
	}
	net, err := executor.NewSimNetwork(base, rb, cfg)
	if err != nil {
		return nil, executor.Options{}, err
	}
	cnet := plan.Instrument(net)
	return cnet, executor.Options{
		StepDeadline:  time.Duration(sp.StepDeadlineMS) * time.Millisecond,
		Retries:       sp.Retries,
		RetryBackoff:  time.Duration(sp.RetryBackoffMS) * time.Millisecond,
		VerifySamples: sp.VerifySamples,
		GraceSamples:  sp.GraceSamples,
		Seed:          sp.ExecSeed,
		CrashHook:     cnet.Hook(),
	}, nil
}

// config validates sp and splits its fault script into the
// delivery-fault plan and the live session's window.
func (sp *ExecSpec) config() (chaos.Plan, simwindow.Config, error) {
	if sp == nil {
		sp = &ExecSpec{}
	}
	if sp.StepDeadlineMS < 0 || sp.Retries < 0 || sp.RetryBackoffMS < 0 ||
		sp.VerifySamples < 0 || sp.GraceSamples < 0 {
		return chaos.Plan{}, simwindow.Config{}, fmt.Errorf("negative exec parameter")
	}
	plan, timed, err := chaos.Split(sp.Chaos)
	if err == nil {
		err = simwindow.SessionFaults(timed)
	}
	if err != nil {
		return chaos.Plan{}, simwindow.Config{}, err
	}
	cfg := simwindow.Config{
		Seed:      sp.Seed,
		StartHour: sp.StartHour,
		Profile:   diurnal(sp.Diurnal),
		LoadNoise: sp.LoadNoise,
		Faults:    timed,
	}
	return plan, cfg, cfg.Validate()
}

// options validates a wave spec and builds the scheduler options of
// job's season (a nil spec selects the scheduler defaults). The job
// supplies the per-wave search: method, objective, anneal seed and
// kernel; workers is its scoring parallelism.
func (sp *WaveSpec) options(ctx context.Context, job JobSpec, workers int) (waveplan.Options, error) {
	if sp == nil {
		sp = &WaveSpec{}
	}
	seen := make(map[int]bool, len(sp.Sectors))
	for _, s := range sp.Sectors {
		if s < 0 {
			return waveplan.Options{}, fmt.Errorf("negative wave sector %d", s)
		}
		if seen[s] {
			return waveplan.Options{}, fmt.Errorf("duplicate wave sector %d", s)
		}
		seen[s] = true
	}
	for _, s := range sp.Blackout {
		if s < 0 {
			return waveplan.Options{}, fmt.Errorf("negative blackout slot %d", s)
		}
	}
	if sp.CrewsPerWave < 0 || sp.MaxWaves < 0 || sp.AnnealIters < 0 ||
		sp.ReplayTicks < 0 || sp.HaltBelowTicks < 0 {
		return waveplan.Options{}, fmt.Errorf("negative wave constraint")
	}
	if sp.OverlapThreshold < 0 || sp.OverlapThreshold >= 1 {
		return waveplan.Options{}, fmt.Errorf("overlap threshold %g outside [0, 1)", sp.OverlapThreshold)
	}
	if sp.MarginDB < 0 || sp.RollingRecovery < 0 || sp.RollingRecovery > 1 {
		return waveplan.Options{}, fmt.Errorf("wave margin or rolling recovery out of range")
	}
	faults, err := simwindow.ParseFaults(sp.Faults)
	if err != nil {
		return waveplan.Options{}, err
	}
	return waveplan.Options{
		Constraints: waveplan.Constraints{
			CrewsPerWave:     sp.CrewsPerWave,
			MaxWaves:         sp.MaxWaves,
			Blackout:         append([]int(nil), sp.Blackout...),
			OverlapThreshold: sp.OverlapThreshold,
			MarginDB:         sp.MarginDB,
		},
		Method:          job.Method,
		Util:            UtilityByName[job.Utility],
		Seed:            job.AnnealSeed,
		AnnealIters:     sp.AnnealIters,
		Workers:         workers,
		RollingRecovery: sp.RollingRecovery,
		Replay:          sp.Replay,
		ReplayTicks:     sp.ReplayTicks,
		ReplayFaults:    faults,
		HaltBelowTicks:  sp.HaltBelowTicks,
		Ctx:             ctx,
	}, nil
}
