// Package migrate implements the paper's gradual tuning strategy
// (Section 6, "Benefits of Gradual Tuning" and Figure 11): instead of
// jumping from C_before to C_after in one step — which triggers a burst
// of synchronized handovers exactly when the target sector goes off-air —
// Magus walks the network through a sequence of small steps:
//
//  1. reduce the target sector's transmit power by a small step, nudging
//     some of its UEs to re-attach to neighbors while the target is still
//     on-air (a seamless handover);
//  2. whenever the predicted utility would fall below f(C_after), apply
//     the next compensation moves toward C_after (neighbor power-ups /
//     uptilts) until the utility floor is restored;
//  3. when the target holds no more UEs, can go no lower, or compensation
//     is exhausted, jump to C_after and take the target off-air. The jump
//     finishes the step it interrupted, so a plan's changes, replayed
//     from C_before, always end exactly at C_after.
//
// Because the model knows f(C_after) in advance (only a model-based
// approach does), the overall utility never drops below the final value
// throughout the migration.
//
// Gradual and OneShot each walk one clone of C_before through the steps
// and never snapshot it again: a step's handovers come from the clone's
// radio-change log (netmodel.State.DrainChangedGrids) checked against a
// per-grid serving snapshot, which sums the same terms in the same
// ascending grid order as a diff of full serving maps would.
package migrate

import (
	"fmt"
	"math"

	"magus/internal/config"
	"magus/internal/netmodel"
	"magus/internal/utility"
)

// StepRecord captures the network state transition of one migration step.
type StepRecord struct {
	// Changes applied in this step.
	Changes []config.Change
	// Utility after the step.
	Utility float64
	// Handovers is the number of UEs whose serving sector differs
	// between the start and the end of this step (a UE that moves and
	// moves back within the step does not count).
	Handovers float64
	// Seamless is the subset of Handovers whose source sector was still
	// on-air when the UE moved.
	Seamless float64
	// Compensations counts the toward-C_after moves applied in this
	// step to hold the utility floor; in the upgrade step it also counts
	// every non-target change of the jump to C_after.
	Compensations int
	// UpgradeStep marks the step in which the target sector(s) went
	// off-air.
	UpgradeStep bool
}

// Plan is the outcome of a migration run.
type Plan struct {
	Steps []StepRecord
	// MaxSimultaneousHandovers is the largest per-step handover burst.
	MaxSimultaneousHandovers float64
	// TotalHandovers sums handovers across steps.
	TotalHandovers float64
	// SeamlessHandovers sums seamless handovers across steps.
	SeamlessHandovers float64
	// UtilityFloor is the lowest post-step utility observed.
	UtilityFloor float64
	// AfterUtility is f(C_after), the floor target.
	AfterUtility float64
	// JumpedToAfter reports whether the walk jumped to C_after with UEs
	// still on the targets: compensation ran out, the targets reached
	// minimum power, or MaxSteps cut the walk short.
	JumpedToAfter bool
}

// SeamlessFraction returns the fraction of handovers that were seamless.
func (p *Plan) SeamlessFraction() float64 {
	if p.TotalHandovers == 0 {
		return 1
	}
	return p.SeamlessHandovers / p.TotalHandovers
}

// Options tune the migration.
type Options struct {
	// Util is the utility objective (default utility.Performance).
	Util utility.Func
	// TargetStepDB is the per-step target power reduction (default 3).
	TargetStepDB float64
	// MaxSteps bounds the number of migration steps, the final jump to
	// C_after included (default 64). A migration that reaches the cap
	// ends with that forced jump as its MaxSteps-th step.
	MaxSteps int
}

func (o *Options) applyDefaults() {
	if o.Util.U == nil {
		o.Util = utility.Performance
	}
	if o.TargetStepDB <= 0 {
		o.TargetStepDB = 3
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 64
	}
}

// unitMoves flattens the configuration delta from cfg to after into unit
// compensation moves (1 dB power or 1 tilt step each), excluding the
// target sectors themselves.
func unitMoves(cfg, after *config.Config, targets map[int]bool) ([]config.Change, error) {
	diff, err := cfg.Diff(after)
	if err != nil {
		return nil, err
	}
	var out []config.Change
	for _, ch := range diff {
		if targets[ch.Sector] {
			continue
		}
		n := int(math.Abs(ch.PowerDelta) + 0.5)
		sign := 1.0
		if ch.PowerDelta < 0 {
			sign = -1
		}
		for i := 0; i < n; i++ {
			out = append(out, config.Change{Sector: ch.Sector, PowerDelta: sign})
		}
		// Fractional residue after whole-dB moves.
		if resid := ch.PowerDelta - sign*float64(n); math.Abs(resid) > 1e-9 {
			out = append(out, config.Change{Sector: ch.Sector, PowerDelta: resid})
		}
		tsign := 1
		if ch.TiltDelta < 0 {
			tsign = -1
		}
		for i := 0; i < ch.TiltDelta*tsign; i++ {
			out = append(out, config.Change{Sector: ch.Sector, TiltDelta: tsign})
		}
		if ch.TurnOff || ch.TurnOn {
			out = append(out, config.Change{Sector: ch.Sector, TurnOff: ch.TurnOff, TurnOn: ch.TurnOn})
		}
	}
	return out, nil
}

// handoverCounter counts each step's handovers on the one working state
// a migration mutates: the state's change log names every grid whose
// radio state a step touched, and serving holds each grid's serving
// sector at the end of the previous step. The log drains in ascending
// grid order, so the per-step sums add exactly the terms, in exactly
// the order, of a full diff of serving maps across a per-step clone.
type handoverCounter struct {
	st      *netmodel.State
	serving []int32
	drain   []int32
}

// newHandoverCounter starts counting on st from its current serving map.
func newHandoverCounter(st *netmodel.State) *handoverCounter {
	st.EnableChangeLog()
	n := st.Model.Grid.NumCells()
	hc := &handoverCounter{st: st, serving: make([]int32, n)}
	for g := 0; g < n; g++ {
		hc.serving[g] = int32(st.ServingSector(g))
	}
	return hc
}

// step returns the UE weight whose serving sector changed since the
// previous call, split into seamless (source still on-air now) and
// hard, and advances the serving snapshot.
func (hc *handoverCounter) step() (total, seamless float64) {
	st := hc.st
	hc.drain = st.DrainChangedGrids(hc.drain[:0])
	for _, g32 := range hc.drain {
		g := int(g32)
		oldSec, newSec := int(hc.serving[g]), st.ServingSector(g)
		if oldSec == newSec {
			continue
		}
		hc.serving[g] = int32(newSec)
		w := st.Model.UE(g)
		if w == 0 {
			continue
		}
		total += w
		if oldSec >= 0 && !st.Cfg.Off(oldSec) {
			seamless += w
		}
	}
	return total, seamless
}

// jump applies the remaining delta from st to after (compensations,
// target power restoration and the off-air switch) into record, the step
// the walk was in when it stopped, and closes it as the upgrade step: the
// changes of every plan, replayed from C_before, end exactly at after.
// Every non-target change of the jump counts as a compensation.
func jump(st *netmodel.State, after *config.Config, targets map[int]bool, hc *handoverCounter, u utility.Func, record StepRecord) (StepRecord, error) {
	diff, err := st.Cfg.Diff(after)
	if err != nil {
		return record, err
	}
	for _, ch := range diff {
		applied, err := st.Apply(ch)
		if err != nil {
			return record, err
		}
		if applied.IsZero() {
			continue
		}
		record.Changes = append(record.Changes, applied)
		if !targets[applied.Sector] {
			record.Compensations++
		}
	}
	record.UpgradeStep = true
	record.Utility = st.Utility(u)
	record.Handovers, record.Seamless = hc.step()
	return record, nil
}

// sum fills the plan's totals and utility floor from its steps.
func (p *Plan) sum() {
	p.UtilityFloor = math.Inf(1)
	for _, s := range p.Steps {
		p.TotalHandovers += s.Handovers
		p.SeamlessHandovers += s.Seamless
		if s.Handovers > p.MaxSimultaneousHandovers {
			p.MaxSimultaneousHandovers = s.Handovers
		}
		if s.Utility < p.UtilityFloor {
			p.UtilityFloor = s.Utility
		}
	}
}

// Gradual executes the gradual migration from before's configuration to
// after (which must have the targets off-air), over the shared model.
// Neither input state is modified.
func Gradual(before *netmodel.State, after *netmodel.State, targets []int, opts Options) (*Plan, error) {
	opts.applyDefaults()
	if before.Model != after.Model {
		return nil, fmt.Errorf("migrate: before and after use different models")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("migrate: no target sectors")
	}
	targetSet := make(map[int]bool, len(targets))
	for _, tg := range targets {
		if tg < 0 || tg >= before.Cfg.NumSectors() {
			return nil, fmt.Errorf("migrate: target sector %d out of range", tg)
		}
		if !after.Cfg.Off(tg) {
			return nil, fmt.Errorf("migrate: target sector %d is not off in C_after", tg)
		}
		targetSet[tg] = true
	}

	afterUtility := after.Utility(opts.Util)
	st := before.Clone()
	moves, err := unitMoves(st.Cfg, after.Cfg, targetSet)
	if err != nil {
		return nil, err
	}
	hc := newHandoverCounter(st)

	plan := &Plan{AfterUtility: afterUtility}
	nextMove := 0

	// Each pass is one step. A pass that cannot finish its step breaks out
	// with the step's record, and the jump after the loop completes it.
	var record StepRecord
	for {
		record = StepRecord{}
		if len(plan.Steps) >= opts.MaxSteps-1 {
			// The cap: the final jump is the MaxSteps-th step.
			plan.JumpedToAfter = true
			break
		}

		// Does any target still hold UEs?
		holding := false
		for _, tg := range targets {
			if st.Load(tg) > 0 {
				holding = true
				break
			}
		}
		if !holding {
			// Everyone has migrated: the jump's off-air switch now
			// displaces nobody attached to the targets.
			break
		}

		// Step 1: reduce target power.
		reduced := false
		for _, tg := range targets {
			applied, err := st.Apply(config.Change{Sector: tg, PowerDelta: -opts.TargetStepDB})
			if err != nil {
				return nil, err
			}
			if !applied.IsZero() {
				record.Changes = append(record.Changes, applied)
				reduced = true
			}
		}
		if !reduced {
			// Targets at minimum power but still holding UEs: jump.
			plan.JumpedToAfter = true
			break
		}

		// Step 2: compensate until the utility floor is restored.
		utilityNow := st.Utility(opts.Util)
		for utilityNow < afterUtility && nextMove < len(moves) {
			applied, err := st.Apply(moves[nextMove])
			nextMove++
			if err != nil {
				return nil, err
			}
			if applied.IsZero() {
				continue
			}
			record.Changes = append(record.Changes, applied)
			record.Compensations++
			utilityNow = st.Utility(opts.Util)
		}
		if utilityNow < afterUtility && nextMove >= len(moves) {
			// Cannot compensate: keep what this step applied and jump
			// straight to C_after as the paper prescribes.
			plan.JumpedToAfter = true
			break
		}

		record.Utility = utilityNow
		record.Handovers, record.Seamless = hc.step()
		plan.Steps = append(plan.Steps, record)
	}

	record, err = jump(st, after.Cfg, targetSet, hc, opts.Util, record)
	if err != nil {
		return nil, err
	}
	plan.Steps = append(plan.Steps, record)
	plan.sum()
	return plan, nil
}

// OneShot executes the direct proactive strategy the paper compares
// against in Figure 11: apply the complete C_before -> C_after delta,
// including taking the targets off-air, in a single synchronized step.
func OneShot(before *netmodel.State, after *netmodel.State, targets []int, opts Options) (*Plan, error) {
	opts.applyDefaults()
	if before.Model != after.Model {
		return nil, fmt.Errorf("migrate: before and after use different models")
	}
	targetSet := make(map[int]bool, len(targets))
	for _, tg := range targets {
		targetSet[tg] = true
	}
	st := before.Clone()
	record, err := jump(st, after.Cfg, targetSet, newHandoverCounter(st), opts.Util, StepRecord{})
	if err != nil {
		return nil, err
	}
	plan := &Plan{Steps: []StepRecord{record}, AfterUtility: after.Utility(opts.Util)}
	plan.sum()
	return plan, nil
}
