// Package runbook turns a Magus mitigation plan into the artifact a
// network operations center actually executes: an ordered list of
// configuration pushes with the model's expected utility and handover
// volume after each one, plus the rollback sequence that undoes the
// whole migration if the planned work is cancelled. The paper's system
// computes configurations; an operator needs them as a change-management
// document — this package is that last mile.
package runbook

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"magus/internal/config"
	"magus/internal/core"
	"magus/internal/migrate"
)

// StepKind classifies a runbook step.
type StepKind string

// Step kinds.
const (
	// KindMigration is a pre-upgrade gradual-tuning step (target power
	// reduction plus compensations).
	KindMigration StepKind = "migration"
	// KindOffAir is the step in which the target sectors go off-air and
	// the planned work may begin.
	KindOffAir StepKind = "off-air"
	// KindRollback is an unwind step of an aborted migration (see
	// BuildRollback).
	KindRollback StepKind = "rollback"
)

// Step is one configuration push.
type Step struct {
	Index int      `json:"index"`
	Kind  StepKind `json:"kind"`
	// Changes to push, in order.
	Changes []config.Change `json:"changes"`
	// ExpectedUtility is the model's predicted overall utility after
	// the push.
	ExpectedUtility float64 `json:"expected_utility"`
	// ExpectedHandovers is the predicted number of UEs re-attaching.
	ExpectedHandovers float64 `json:"expected_handovers"`
	// Note carries operator guidance.
	Note string `json:"note,omitempty"`
}

// Inverse returns the changes that undo the step: its changes inverted,
// in reverse order.
func (s Step) Inverse() []config.Change {
	inv := make([]config.Change, 0, len(s.Changes))
	for i := len(s.Changes) - 1; i >= 0; i-- {
		inv = append(inv, s.Changes[i].Inverse())
	}
	return inv
}

// Runbook is a complete executable mitigation document.
type Runbook struct {
	Title     string `json:"title"`
	Scenario  string `json:"scenario"`
	Method    string `json:"method"`
	Objective string `json:"objective"`
	// Targets are the sectors the planned work takes off-air.
	Targets []int `json:"targets"`
	// TunedSectors are every sector the runbook touches besides the
	// targets.
	TunedSectors []int `json:"tuned_sectors"`
	// Expected utilities and recovery, from the model.
	ExpectedBefore   float64 `json:"expected_before"`
	ExpectedUpgrade  float64 `json:"expected_upgrade"`
	ExpectedAfter    float64 `json:"expected_after"`
	ExpectedRecovery float64 `json:"expected_recovery"`
	// UtilityFloor is the guaranteed minimum utility during migration.
	UtilityFloor float64 `json:"utility_floor"`
	// Steps is the ordered execution sequence.
	Steps []Step `json:"steps"`
	// Rollback undoes every step in reverse order (for a cancelled
	// upgrade).
	Rollback []config.Change `json:"rollback"`
	// StepIntervalSec is the recommended spacing between pushes.
	StepIntervalSec float64 `json:"step_interval_sec"`
	// Wave annotates runbooks that execute one wave of a planned upgrade
	// season (internal/waveplan); nil for standalone mitigations.
	Wave *WaveMeta `json:"wave,omitempty"`
}

// WaveMeta ties a runbook to its position in an upgrade season and
// carries the season-level abort contract: if observed utility breaches
// HaltFloor while the wave executes, the NOC halts the season and pushes
// this runbook's Rollback sequence (rolling vs stopping semantics after
// celestia-app's ADR-018 upgrade taxonomy).
type WaveMeta struct {
	// Wave is the 1-based wave number within the season's execution order.
	Wave int `json:"wave"`
	// Slot is the calendar slot the wave occupies (blackout slots are
	// never assigned).
	Slot int `json:"slot"`
	// Semantics is "rolling" — the network keeps serving through the
	// migration steps and the next wave may be prepared while this one
	// executes — or "stopping": recovery is poor enough that the season
	// pauses until this wave's targets are back on air.
	Semantics string `json:"semantics"`
	// HaltFloor is the utility below which the season halts and this
	// wave rolls back.
	HaltFloor float64 `json:"halt_floor"`
}

// Build assembles the runbook for a mitigation plan and its gradual
// migration schedule.
func Build(plan *core.Plan, mig *migrate.Plan) (*Runbook, error) {
	if plan == nil || mig == nil {
		return nil, fmt.Errorf("runbook: nil plan")
	}
	rb := &Runbook{
		Title:            fmt.Sprintf("Planned upgrade mitigation: %s via %s", plan.Scenario, plan.Method),
		Scenario:         plan.Scenario.String(),
		Method:           plan.Method.String(),
		Objective:        plan.Util.Name,
		Targets:          append([]int(nil), plan.Targets...),
		ExpectedBefore:   plan.UtilityBefore,
		ExpectedUpgrade:  plan.UtilityUpgrade,
		ExpectedAfter:    plan.UtilityAfter,
		ExpectedRecovery: plan.RecoveryRatio(),
		UtilityFloor:     mig.AfterUtility,
		StepIntervalSec:  60,
	}

	targetSet := make(map[int]bool, len(plan.Targets))
	for _, tg := range plan.Targets {
		targetSet[tg] = true
	}
	tunedSet := map[int]bool{}
	for i, ms := range mig.Steps {
		kind := KindMigration
		note := ""
		if ms.UpgradeStep {
			kind = KindOffAir
			note = "targets go off-air; planned work may begin after this push"
		}
		step := Step{
			Index:             i + 1,
			Kind:              kind,
			Changes:           append([]config.Change(nil), ms.Changes...),
			ExpectedUtility:   ms.Utility,
			ExpectedHandovers: ms.Handovers,
			Note:              note,
		}
		rb.Steps = append(rb.Steps, step)
		for _, ch := range ms.Changes {
			if !targetSet[ch.Sector] {
				tunedSet[ch.Sector] = true
			}
		}
	}
	for s := range tunedSet {
		rb.TunedSectors = append(rb.TunedSectors, s)
	}
	sort.Ints(rb.TunedSectors)

	// Rollback: the steps' inverses, last step first.
	for i := len(rb.Steps) - 1; i >= 0; i-- {
		rb.Rollback = append(rb.Rollback, rb.Steps[i].Inverse()...)
	}
	return rb, nil
}

// BuildRollback derives the abort document for a runbook whose
// execution must be unwound — the wave scheduler emits one when a
// season halts mid-wave. Steps run in reverse order of the original
// pushes, each pushing the inverses of one original step (so the
// off-air targets return to air first, then the compensations unwind),
// with the expected utility restored to the pre-step value. The
// document's own Rollback re-applies the original pushes, should the
// halt be rescinded.
func BuildRollback(rb *Runbook, reason string) *Runbook {
	out := &Runbook{
		Title:            "ROLLBACK: " + rb.Title,
		Scenario:         rb.Scenario,
		Method:           rb.Method,
		Objective:        rb.Objective,
		Targets:          append([]int(nil), rb.Targets...),
		TunedSectors:     append([]int(nil), rb.TunedSectors...),
		ExpectedBefore:   rb.ExpectedAfter,
		ExpectedUpgrade:  rb.ExpectedUpgrade,
		ExpectedAfter:    rb.ExpectedBefore,
		ExpectedRecovery: 1,
		UtilityFloor:     rb.UtilityFloor,
		StepIntervalSec:  rb.StepIntervalSec,
		Wave:             rb.Wave,
	}
	for i := len(rb.Steps) - 1; i >= 0; i-- {
		src := rb.Steps[i]
		expect := rb.ExpectedBefore
		if i > 0 {
			expect = rb.Steps[i-1].ExpectedUtility
		}
		note := ""
		if len(out.Steps) == 0 && reason != "" {
			note = "halt: " + reason
		}
		if src.Kind == KindOffAir {
			if note != "" {
				note += "; "
			}
			note += "targets return to air in this push"
		}
		out.Steps = append(out.Steps, Step{
			Index:           len(out.Steps) + 1,
			Kind:            KindRollback,
			Changes:         src.Inverse(),
			ExpectedUtility: expect,
			Note:            note,
		})
	}
	for _, s := range rb.Steps {
		out.Rollback = append(out.Rollback, s.Changes...)
	}
	return out
}

// WriteJSON emits the runbook as indented JSON.
func (r *Runbook) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText emits the runbook as an operator-readable document.
func (r *Runbook) WriteText(w io.Writer) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
	}
	p("RUNBOOK: %s", r.Title)
	if r.Wave != nil {
		p("wave %d (slot %d, %s): halt season and roll back if utility drops below %.1f",
			r.Wave.Wave, r.Wave.Slot, r.Wave.Semantics, r.Wave.HaltFloor)
	}
	p("objective: %s    expected recovery: %.1f%%", r.Objective, 100*r.ExpectedRecovery)
	p("targets off-air: %v", r.Targets)
	p("sectors tuned:   %v", r.TunedSectors)
	p("expected utility: before %.1f, during work %.1f (floor %.1f), unmitigated %.1f",
		r.ExpectedBefore, r.ExpectedAfter, r.UtilityFloor, r.ExpectedUpgrade)
	p("")
	p("EXECUTION (allow %s between pushes):", time.Duration(r.StepIntervalSec)*time.Second)
	for _, s := range r.Steps {
		p("  step %d [%s]: %d changes, expect utility %.1f, ~%.0f handovers",
			s.Index, s.Kind, len(s.Changes), s.ExpectedUtility, s.ExpectedHandovers)
		for _, ch := range s.Changes {
			p("      push %v", ch)
		}
		if s.Note != "" {
			p("      NOTE: %s", s.Note)
		}
	}
	p("")
	p("ROLLBACK (if the work is cancelled, push in this order):")
	for i, ch := range r.Rollback {
		p("  %2d. %v", i+1, ch)
	}
	return nil
}
