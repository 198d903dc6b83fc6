// Package simwindow executes an upgrade window through time. The rest
// of the repo scores static configurations; this package takes the
// artifact an operator actually runs — a runbook of ordered
// configuration pushes — and plays it against the radio model tick by
// tick: pushes land at their scheduled times, per-grid user load
// evolves along a diurnal profile, and the simulator records a per-tick
// time series of overall utility, handover volume, sector load, and
// out-of-service users. A scripted fault layer perturbs the window
// (pushes lost or delayed, a compensating neighbor failing mid-window,
// a localized load surge), and a replanner hook re-invokes the search
// stack from the live simulated state when utility sits below the
// f(C_after) floor for too long, splicing the corrective pushes into
// the remaining runbook.
//
// Determinism contract: given the same (starting state, runbook, Config
// — including Seed, fault script, and worker count) the simulator
// produces a bit-identical Outcome. Every event source is ordered
// (faults sort by tick/kind/sector, pushes execute in runbook order),
// the only randomness is the per-run rand.Rand, and the model's
// incremental updates are bit-equal to full re-evaluations. CI runs the
// determinism test twice to hold the contract.
package simwindow

import (
	"context"
	"fmt"
	"math"

	"magus/internal/config"
	"magus/internal/netmodel"
	"magus/internal/runbook"
	"magus/internal/schedule"
	"magus/internal/stats"
	"magus/internal/utility"
)

// Config tunes one simulation run. The zero value simulates the runbook
// at constant load with no faults and no replanning.
type Config struct {
	// Seed drives the run's private rand.Rand (load noise). Two runs
	// with equal Config and inputs are bit-identical.
	Seed int64
	// Ticks is the window length: Run's series covers ticks 0..Ticks
	// (default: one tick per push plus 30 settle ticks). A Session runs
	// for as long as its caller advances it.
	Ticks int
	// TickSeconds is the wall-clock length of one tick (default: the
	// runbook's StepIntervalSec, else 60).
	TickSeconds float64
	// PushEveryTicks spaces consecutive runbook pushes (default 1).
	PushEveryTicks int
	// StartHour is the local hour of day at tick 0 (operators open
	// windows in the night valley; default 2).
	StartHour float64
	// Profile evolves the load with the hour of day; nil holds load
	// constant.
	Profile *schedule.DiurnalProfile
	// LoadNoise adds per-tick lognormal load jitter with this sigma
	// (0 = none).
	LoadNoise float64
	// Util is the objective measured each tick (default
	// utility.Performance).
	Util utility.Func
	// SINRFloorDB is the "users below SINR floor" threshold; 0 selects
	// the link model's out-of-service threshold.
	SINRFloorDB float64
	// Faults is the fault script (see ParseFaults).
	Faults []Fault
	// SurgeRadiusM is the half-extent of a surge fault around its
	// sector (default 1500).
	SurgeRadiusM float64
	// Replanner, when non-nil, is consulted after utility has sat below
	// the floor for FloorGraceTicks consecutive ticks.
	Replanner Replanner
	// FloorGraceTicks is K, the consecutive below-floor ticks tolerated
	// before replanning (default 3).
	FloorGraceTicks int
	// MaxReplans bounds replanner invocations (default 2).
	MaxReplans int
	// HaltAfterBelowTicks, when > 0, aborts the run once utility has sat
	// below the floor for this many consecutive ticks: the wave
	// scheduler's season-halt trigger (ADR-018's halt-height translated
	// to utility). The breaching tick is recorded, the summary is marked
	// Halted, and remaining pushes are abandoned — the operator recovers
	// via the runbook's Rollback sequence. Takes precedence over
	// replanning.
	HaltAfterBelowTicks int
	// Workers is the candidate-scoring parallelism handed to the
	// replanner's search (same knob as core.MitigateRequest.Workers).
	Workers int
	// NeighborRadiusM bounds the replanner's neighbor set around the
	// runbook targets (default 1.6 x the class inter-site distance).
	NeighborRadiusM float64
	// RecordSectorLoads adds the full per-sector load matrix to the
	// outcome (the series always carries the per-tick maximum).
	RecordSectorLoads bool
	// Ctx, when non-nil, aborts the simulation between ticks.
	Ctx context.Context
}

func (c *Config) applyDefaults(rb *runbook.Runbook) {
	if c.TickSeconds <= 0 {
		if rb.StepIntervalSec > 0 {
			c.TickSeconds = rb.StepIntervalSec
		} else {
			c.TickSeconds = 60
		}
	}
	if c.PushEveryTicks <= 0 {
		c.PushEveryTicks = 1
	}
	if c.Ticks <= 0 {
		c.Ticks = len(rb.Steps)*c.PushEveryTicks + 30
	}
	if c.StartHour == 0 {
		c.StartHour = 2
	}
	if c.Util.U == nil {
		c.Util = utility.Performance
	}
	if c.FloorGraceTicks <= 0 {
		c.FloorGraceTicks = 3
	}
	if c.MaxReplans <= 0 {
		c.MaxReplans = 2
	}
	if c.SurgeRadiusM <= 0 {
		c.SurgeRadiusM = 1500
	}
}

// Tick is one sample of the simulated time series.
type Tick struct {
	Tick int `json:"tick"`
	// HourOfDay is the local time of the sample.
	HourOfDay float64 `json:"hour_of_day"`
	// LoadFactor is the diurnal (plus noise) multiplier in effect.
	LoadFactor float64 `json:"load_factor"`
	// Utility is f(C_live) at the tick's load.
	Utility float64 `json:"utility"`
	// FloorUtility is f(C_after) — the planned configuration — at the
	// same load: the paper's migration floor, tracked dynamically.
	FloorUtility float64 `json:"floor_utility"`
	// Handovers is the UE weight whose serving sector changed since the
	// previous tick.
	Handovers float64 `json:"handovers"`
	// MaxSectorLoad is the busiest sector's UE load.
	MaxSectorLoad float64 `json:"max_sector_load"`
	// UsersBelowFloor is the UE weight at SINR below the floor
	// (out-of-service users).
	UsersBelowFloor float64 `json:"users_below_floor"`
	// PushedChanges counts configuration changes applied this tick.
	PushedChanges int `json:"pushed_changes"`
	// Events narrates pushes, faults, and replans landing this tick.
	Events []string `json:"events,omitempty"`
}

// Summary condenses an Outcome for wire transport and reports.
type Summary struct {
	Ticks            int     `json:"ticks"`
	FinalUtility     float64 `json:"final_utility"`
	FinalFloor       float64 `json:"final_floor"`
	EndsAboveFloor   bool    `json:"ends_above_floor"`
	MinFloorGap      float64 `json:"min_floor_gap"`
	TicksBelowFloor  int     `json:"ticks_below_floor"`
	MaxTickHandovers float64 `json:"max_tick_handovers"`
	TotalHandovers   float64 `json:"total_handovers"`
	PushesApplied    int     `json:"pushes_applied"`
	PushesDropped    int     `json:"pushes_dropped"`
	PushesDelayed    int     `json:"pushes_delayed"`
	FaultsInjected   int     `json:"faults_injected"`
	Replans          int     `json:"replans"`
	ReplanPushes     int     `json:"replan_pushes"`
	// Halted reports that Config.HaltAfterBelowTicks tripped at HaltTick
	// and the window was abandoned mid-run.
	Halted   bool `json:"halted,omitempty"`
	HaltTick int  `json:"halt_tick,omitempty"`
	// UtilityStats and HandoverStats summarize the two headline series.
	UtilityStats  stats.Summary `json:"utility_stats"`
	HandoverStats stats.Summary `json:"handover_stats"`
}

// Outcome is the full result of one simulated window.
type Outcome struct {
	Series  []Tick  `json:"series"`
	Summary Summary `json:"summary"`
	// SectorLoads[t][b] is sector b's load at tick t (only with
	// Config.RecordSectorLoads).
	SectorLoads [][]float64 `json:"sector_loads,omitempty"`
}

// push is one pending configuration push (runbook step or spliced
// replan correction).
type push struct {
	tick    int // earliest tick it may execute
	step    int // 1-based runbook index; 0 for replan pushes
	kind    runbook.StepKind
	replan  bool
	changes []config.Change
}

// Simulator drives one batch run of a window over a Session, adding
// what is specific to a batch: runbook pacing, push faults, the
// replanner, the halt rule and the Outcome. Build with New, run once
// with Run.
type Simulator struct {
	sess *Session
	rb   *runbook.Runbook

	// beforeRef holds C_before for the replanner's degraded-grid set
	// (nil without a replanner). Surges rescale base weights without
	// refreshing its loads: nothing reads them until a replan, which
	// refreshes them when the session's rescale count has moved past
	// beforeRescales.
	beforeRef      *netmodel.State
	beforeRescales int

	pending   []push
	pendingRe int // replan pushes still in pending
	pushFail  map[int]bool
	pushDelay map[int]int
	neighbors []int
}

// New prepares a simulation of rb starting from base (the C_before
// state the runbook was planned against). The base state and its model
// are not mutated: the simulator forks the model's user distribution
// and builds private states.
func New(base *netmodel.State, rb *runbook.Runbook, cfg Config) (*Simulator, error) {
	return newSimulator(base, rb, cfg, false)
}

// newSimulator builds a Simulator; full selects the meter's full-scan
// reference measurement.
func newSimulator(base *netmodel.State, rb *runbook.Runbook, cfg Config, full bool) (*Simulator, error) {
	sess, err := newSession(base, rb, cfg, full)
	if err != nil {
		return nil, err
	}
	cfg = sess.cfg
	s := &Simulator{
		sess:      sess,
		rb:        rb,
		pushFail:  map[int]bool{},
		pushDelay: map[int]int{},
	}
	for i, step := range rb.Steps {
		s.pending = append(s.pending, push{
			tick:    (i + 1) * cfg.PushEveryTicks,
			step:    step.Index,
			kind:    step.Kind,
			changes: step.Changes,
		})
	}
	for _, f := range cfg.Faults {
		switch f.Kind {
		case FaultPushFail:
			s.pushFail[f.Step] = true
		case FaultPushDelay:
			s.pushDelay[f.Step] = f.DelayTicks
		}
	}
	if cfg.Replanner != nil {
		s.beforeRef = sess.live.Clone()
		radius := cfg.NeighborRadiusM
		if radius <= 0 {
			radius = 1.6 * sess.model.Net.Params.InterSiteDistanceM
		}
		s.neighbors = sess.model.Net.NeighborSectors(rb.Targets, radius)
	}
	return s, nil
}

// Run executes the window and returns the recorded time series. A
// Simulator is single-use: Run may be called once.
func (s *Simulator) Run() (*Outcome, error) {
	sess := s.sess
	cfg := &sess.cfg
	out := &Outcome{}
	belowStreak := 0
	replans := 0
	sum := &out.Summary
	sum.MinFloorGap = math.Inf(1)
	out.Series = make([]Tick, 0, cfg.Ticks+1)
	// Events scratch, reused across ticks: most ticks have none, and
	// event ticks copy out exactly once instead of growing a fresh slice.
	evBuf := make([]string, 0, 4)

	for t := 0; t <= cfg.Ticks; t++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		events := sess.evolve(evBuf[:0])

		// At most one configuration push per tick, in order.
		pushed := 0
		if len(s.pending) > 0 && s.pending[0].tick <= t {
			p := s.pending[0]
			switch {
			case !p.replan && s.pushDelay[p.step] > 0:
				delay := s.pushDelay[p.step]
				delete(s.pushDelay, p.step)
				s.pending[0].tick = t + delay
				sum.PushesDelayed++
				sum.FaultsInjected++
				events = append(events, fmt.Sprintf("fault: push %d held for %d ticks", p.step, delay))
			case !p.replan && s.pushFail[p.step]:
				delete(s.pushFail, p.step)
				s.pending = s.pending[1:]
				sum.PushesDropped++
				sum.FaultsInjected++
				events = append(events, fmt.Sprintf("fault: push %d lost", p.step))
			default:
				s.pending = s.pending[1:]
				for _, ch := range p.changes {
					if _, err := sess.live.Apply(ch); err != nil {
						return nil, fmt.Errorf("simwindow: push %d: %w", p.step, err)
					}
				}
				pushed = len(p.changes)
				sum.PushesApplied++
				if p.replan {
					s.pendingRe--
					events = append(events, fmt.Sprintf("replan push: %d changes", len(p.changes)))
				} else {
					events = append(events, fmt.Sprintf("push %d [%s]: %d changes", p.step, p.kind, len(p.changes)))
				}
			}
		}

		smp := sess.measure(t)

		// Floor watch: season halt, then replanning.
		if BelowFloor(smp.Utility, smp.Floor) {
			belowStreak++
			sum.TicksBelowFloor++
		} else {
			belowStreak = 0
		}
		halted := cfg.HaltAfterBelowTicks > 0 && belowStreak >= cfg.HaltAfterBelowTicks
		if halted {
			sum.Halted = true
			sum.HaltTick = t
			events = append(events, fmt.Sprintf(
				"HALT: utility below floor for %d consecutive ticks; abandon window and roll back", belowStreak))
		}
		if !halted && belowStreak >= cfg.FloorGraceTicks && cfg.Replanner != nil &&
			replans < cfg.MaxReplans && s.pendingRe == 0 {
			batches, err := s.replan(smp.Floor)
			if err != nil {
				return nil, fmt.Errorf("simwindow: replan at tick %d: %w", t, err)
			}
			sess.mt.resync()
			replans++
			belowStreak = 0
			if len(batches) > 0 {
				// Splice the corrections ahead of the remaining runbook.
				spliced := make([]push, 0, len(batches)+len(s.pending))
				for i, changes := range batches {
					spliced = append(spliced, push{tick: t + 1 + i, replan: true, changes: changes})
				}
				s.pending = append(spliced, s.pending...)
				s.pendingRe += len(batches)
				sum.ReplanPushes += len(batches)
				events = append(events, fmt.Sprintf("replan: %d corrective pushes spliced", len(batches)))
			} else {
				events = append(events, "replan: no corrective moves found")
			}
		}

		gap := smp.Utility - smp.Floor
		if gap < sum.MinFloorGap {
			sum.MinFloorGap = gap
		}
		sum.TotalHandovers += smp.Handovers
		if smp.Handovers > sum.MaxTickHandovers {
			sum.MaxTickHandovers = smp.Handovers
		}
		var tickEvents []string
		if len(events) > 0 {
			tickEvents = append([]string(nil), events...)
		}
		evBuf = events[:0] // keep any growth for the next tick
		out.Series = append(out.Series, Tick{
			Tick:            t,
			HourOfDay:       math.Mod(cfg.StartHour+float64(t)*cfg.TickSeconds/3600, 24),
			LoadFactor:      smp.LoadFactor,
			Utility:         smp.Utility,
			FloorUtility:    smp.Floor,
			Handovers:       smp.Handovers,
			MaxSectorLoad:   smp.MaxSectorLoad,
			UsersBelowFloor: smp.UsersBelowFloor,
			PushedChanges:   pushed,
			Events:          tickEvents,
		})
		if cfg.RecordSectorLoads {
			loads := make([]float64, sess.model.Net.NumSectors())
			for b := range loads {
				loads[b] = sess.live.Load(b)
			}
			out.SectorLoads = append(out.SectorLoads, loads)
		}
		sess.mt.tickDone()
		if halted {
			break
		}
	}

	sum.Ticks = len(out.Series)
	sum.Replans = replans
	sum.FaultsInjected += sess.timedNext // timed faults fired
	last := out.Series[len(out.Series)-1]
	sum.FinalUtility = last.Utility
	sum.FinalFloor = last.FloorUtility
	sum.EndsAboveFloor = !BelowFloor(last.Utility, last.FloorUtility)
	us := make([]float64, len(out.Series))
	hs := make([]float64, len(out.Series))
	for i, tk := range out.Series {
		us[i] = tk.Utility
		hs[i] = tk.Handovers
	}
	sum.UtilityStats = stats.Summarize(us)
	sum.HandoverStats = stats.Summarize(hs)
	return out, nil
}

// String renders the outcome as a compact operator report.
func (o *Outcome) String() string {
	var b []byte
	sum := o.Summary
	b = fmt.Appendf(b, "simulated %d ticks: utility %.1f -> %.1f (floor %.1f, %s)\n",
		sum.Ticks, o.Series[0].Utility, sum.FinalUtility, sum.FinalFloor,
		map[bool]string{true: "ends above floor", false: "ENDS BELOW FLOOR"}[sum.EndsAboveFloor])
	b = fmt.Appendf(b, "pushes: %d applied, %d dropped, %d delayed; faults: %d; replans: %d (+%d pushes)\n",
		sum.PushesApplied, sum.PushesDropped, sum.PushesDelayed,
		sum.FaultsInjected, sum.Replans, sum.ReplanPushes)
	b = fmt.Appendf(b, "handovers: %.0f total, max %.0f/tick; %d ticks below floor (min gap %.2f)\n",
		sum.TotalHandovers, sum.MaxTickHandovers, sum.TicksBelowFloor, sum.MinFloorGap)
	for _, tk := range o.Series {
		for _, ev := range tk.Events {
			b = fmt.Appendf(b, "  t=%-4d %s\n", tk.Tick, ev)
		}
	}
	return string(b)
}
