package simwindow

import (
	"fmt"
	"math"
	"math/rand"

	"magus/internal/config"
	"magus/internal/geo"
	"magus/internal/netmodel"
	"magus/internal/runbook"
)

// Session is the simulator's one tick loop. It owns the forked model,
// the live and C_after states, the clock (diurnal load, noise, surge
// expiry), the timed faults and the KPI meter. A caller drives it: the
// runbook executor treats a Session as the "real" network, applying
// each step's changes when (and only when) the guarded protocol decides
// to and sampling utility against the f(C_after) floor between pushes;
// Simulator.Run drives one through a whole window with runbook pacing,
// push faults and replanning layered on top. Both therefore measure the
// same series for the same clock and pushes.
type Session struct {
	cfg Config
	// tickSec is the wall-clock length of one tick: the runbook's
	// StepIntervalSec, else 60.
	tickSec float64

	// model is a private fork: load evolution must never leak into the
	// (possibly cached and shared) planning model.
	model *netmodel.Model
	// live is the configuration actually in the field.
	live *netmodel.State
	// afterRef holds the planned C_after; its utility at the current
	// load is the sample's floor.
	afterRef *netmodel.State
	mt       *meter

	rng       *rand.Rand
	tick      int
	curFactor float64
	timed     []timedFault
	timedNext int
	active    []surge
	// rescales counts localized base-weight rescales (surge starts and
	// ends): a driver holding its own state on the session's model uses
	// it to tell when that state's loads went stale.
	rescales int
}

// timedFault is a validated sector-down or surge fault; a surge carries
// the grid set it scales.
type timedFault struct {
	Fault
	grids []int
}

// surge tracks an active load-surge fault so it can be unwound.
type surge struct {
	endTick int
	grids   []int
	factor  float64
}

// Sample is one KPI observation of a live session.
type Sample struct {
	// Tick is the session tick the sample was taken at.
	Tick int `json:"tick"`
	// Utility is f(C_live) at the tick's load.
	Utility float64 `json:"utility"`
	// Floor is f(C_after) at the same load — the migration floor.
	Floor float64 `json:"floor"`
	// LoadFactor is the diurnal (plus noise) multiplier in effect.
	LoadFactor float64 `json:"load_factor"`
	// Handovers is the UE weight whose serving sector changed since the
	// previous sample.
	Handovers float64 `json:"handovers"`
	// UsersBelowFloor is the UE weight at SINR below the floor.
	UsersBelowFloor float64 `json:"users_below_floor"`
	// MaxSectorLoad is the busiest sector's UE load.
	MaxSectorLoad float64 `json:"max_sector_load"`
}

// NewSession prepares a live session of rb starting from base (the
// C_before state the runbook was planned against). base and its model
// are not mutated. Only timed faults (sector-down, surge) are accepted
// (see SessionFaults).
func NewSession(base *netmodel.State, rb *runbook.Runbook, cfg Config) (*Session, error) {
	if err := SessionFaults(cfg.Faults); err != nil {
		return nil, err
	}
	return newSession(base, rb, cfg, false)
}

// SessionFaults rejects push faults, which a live session does not run:
// push faults are the executor/chaos layer's concern, and rejecting
// them here keeps one owner per failure mode. Spec validators call it
// so a bad script fails before any planning.
func SessionFaults(faults []Fault) error {
	for _, f := range faults {
		if f.Kind == FaultPushFail || f.Kind == FaultPushDelay {
			return fmt.Errorf("simwindow: session fault %v: only sector-down and surge faults run in a session", f)
		}
	}
	return nil
}

// newSession is the constructor shared by sessions and simulators: it
// forks the model, builds the live and C_after states on the fork,
// validates every fault once and sets up the meter (full selects the
// full-scan reference measurement).
func newSession(base *netmodel.State, rb *runbook.Runbook, cfg Config, full bool) (*Session, error) {
	if base == nil || rb == nil {
		return nil, fmt.Errorf("simwindow: nil state or runbook")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults(rb)

	afterCfg := base.Cfg.Clone()
	for _, step := range rb.Steps {
		for _, ch := range step.Changes {
			if _, err := afterCfg.Apply(ch); err != nil {
				return nil, fmt.Errorf("simwindow: step %d: %w", step.Index, err)
			}
		}
	}
	// Both states are built on the fork, which shares base's link rows;
	// base is only read.
	model := base.Model.ForkUsers()
	live := model.NewState(base.Cfg.Clone())
	s := &Session{
		cfg:       cfg,
		tickSec:   60,
		model:     model,
		live:      live,
		afterRef:  model.NewState(afterCfg),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		curFactor: 1,
	}
	if rb.StepIntervalSec > 0 {
		s.tickSec = rb.StepIntervalSec
	}

	var timed []Fault
	for _, f := range cfg.Faults {
		if err := f.validate(len(rb.Steps), model.Net.NumSectors()); err != nil {
			return nil, err
		}
		if f.Kind == FaultSectorDown || f.Kind == FaultLoadSurge {
			timed = append(timed, f)
		}
	}
	sortFaults(timed)
	for _, f := range timed {
		tf := timedFault{Fault: f}
		if f.Kind == FaultLoadSurge {
			rect := geo.NewRectCentered(model.Net.Sectors[f.Sector].Pos, 2*surgeRadiusM, 2*surgeRadiusM)
			tf.grids = model.GridsIn(nil, rect)
		}
		s.timed = append(s.timed, tf)
	}
	s.mt = newMeter(model, live, s.afterRef, &s.cfg, full)
	return s, nil
}

// Utility returns f(C_live) at the current load without advancing time.
func (s *Session) Utility() float64 { return s.live.KPIUtility() }

// Push applies one step's configuration changes to the live network.
// The session clock does not move: delivery timing is the caller's
// protocol, sampled through Advance.
func (s *Session) Push(changes []config.Change) error {
	for _, ch := range changes {
		if _, err := s.live.Apply(ch); err != nil {
			return fmt.Errorf("simwindow: push: %w", err)
		}
	}
	return nil
}

// Advance moves the session one tick — diurnal load evolution, noise,
// surge expiry, and any timed faults due — and returns the tick's KPI
// sample. Given the same seed and call sequence the samples are
// bit-identical run to run.
func (s *Session) Advance() Sample {
	t := s.tick
	s.evolve(nil)
	smp := s.measure(t)
	s.mt.tickDone()
	return smp
}

// evolve moves the clock to the next tick: load factor and noise draw,
// surge expiry, then the timed faults due. It appends one event per
// expiry and fault to events and returns the extended slice.
func (s *Session) evolve(events []string) []string {
	t := s.tick
	s.tick++

	// The uniform swing is a factor fold on the model (O(1)); localized
	// surge edits repair loads and aggregates per touched grid.
	factor := s.profileFactorAt(t)
	if s.cfg.LoadNoise > 0 {
		factor *= math.Exp(s.cfg.LoadNoise * s.rng.NormFloat64())
	}
	loadChanged := factor != s.curFactor
	if loadChanged {
		s.model.ScaleUsers(factor / s.curFactor)
		s.curFactor = factor
	}
	for i := 0; i < len(s.active); {
		if t >= s.active[i].endTick {
			s.mt.scaleAt(s.active[i].grids, 1/s.active[i].factor)
			s.rescales++
			events = append(events, fmt.Sprintf("surge over %d grids ends", len(s.active[i].grids)))
			s.active = append(s.active[:i], s.active[i+1:]...)
			loadChanged = true
			continue
		}
		i++
	}

	for s.timedNext < len(s.timed) && s.timed[s.timedNext].Tick <= t {
		f := s.timed[s.timedNext]
		s.timedNext++
		switch f.Kind {
		case FaultSectorDown:
			// The sector was range-checked at construction; turning off an
			// already-off sector is a no-op, so the apply cannot fail.
			s.live.MustApply(config.Change{Sector: f.Sector, TurnOff: true})
			events = append(events, fmt.Sprintf("fault: sector %d off-air", f.Sector))
		case FaultLoadSurge:
			s.mt.scaleAt(f.grids, f.Factor)
			s.rescales++
			end := math.MaxInt // duration 0: never expires
			if f.DurationTicks > 0 {
				end = t + f.DurationTicks
			}
			s.active = append(s.active, surge{endTick: end, grids: f.grids, factor: f.Factor})
			loadChanged = true
			events = append(events, fmt.Sprintf("fault: x%g load surge over %d grids", f.Factor, len(f.grids)))
		}
	}
	if loadChanged {
		s.mt.loadsChanged()
	}
	return events
}

// measure takes tick t's sample: both utilities, the handover and
// below-floor weight since the previous sample, and the busiest
// sector's load.
func (s *Session) measure(t int) Sample {
	u, floor := s.mt.utilities()
	handovers, below := s.mt.measureChanges()
	maxLoad := 0.0
	for b := 0; b < s.model.Net.NumSectors(); b++ {
		if l := s.live.Load(b); l > maxLoad {
			maxLoad = l
		}
	}
	return Sample{
		Tick:            t,
		Utility:         u,
		Floor:           floor,
		LoadFactor:      s.curFactor,
		Handovers:       handovers,
		UsersBelowFloor: below,
		MaxSectorLoad:   maxLoad,
	}
}

// hourAt is the local hour of day at tick t.
func (s *Session) hourAt(t int) float64 {
	return math.Mod(s.cfg.StartHour+float64(t)*s.tickSec/3600, 24)
}

// profileFactorAt is the diurnal load multiplier at tick t.
func (s *Session) profileFactorAt(t int) float64 {
	p := s.cfg.Profile
	if p == nil {
		return 1
	}
	h := s.hourAt(t)
	lo := int(h) % 24
	frac := h - math.Floor(h)
	return p[lo]*(1-frac) + p[(lo+1)%24]*frac
}

// BelowFloor reports whether utility u breaches the floor. The floor is
// itself a model evaluation, so exact ties (within 1e-9 relative) count
// as "at the floor". The simulator's halt and replan rules and the
// executor's KPI watchdog all judge a breach with this predicate.
func BelowFloor(u, floor float64) bool { return u < floor-1e-9*(1+math.Abs(floor)) }
