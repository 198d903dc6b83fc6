// Package executor drives a Runbook step-by-step against a live
// network with the guardrails the plan alone cannot provide: preflight
// validation, per-step deadlines, retried pushes, post-step KPI
// verification against the f(C_after) floor, journaled checkpoints for
// crash recovery, and automatic rollback of every committed step when a
// guard trips. It is the execution layer between "plan the upgrade"
// and "trust it in production": the planner promises the floor, the
// executor enforces it.
package executor

import (
	"context"
	"fmt"
	"sync"

	"magus/internal/netmodel"
	"magus/internal/runbook"
	"magus/internal/simwindow"
)

// Sample is one KPI observation of the live network, compared against
// the planned f(C_after) floor by the executor's watchdog: a live
// session's sample, passed through unchanged.
type Sample = simwindow.Sample

// Network is the executor's view of the system being upgraded. The
// default implementation is a live simwindow session; the chaos package
// wraps any Network with fault injection, and a production
// implementation would speak the OSS/EMS southbound protocol.
//
// The contract the executor leans on:
//   - Push is NOT assumed atomic-and-reported: it may fail after
//     applying (the classic in-doubt window). Applied must answer
//     truthfully whether a step's changes are already in effect, so
//     recovery never double-pushes.
//   - Observe advances (or samples) the network clock and may fail
//     transiently (KPI pipeline loss); the executor bounds how many
//     losses it tolerates per step.
type Network interface {
	// Preflight checks a step is applicable before any mutation (e.g.
	// the referenced sectors exist and the changes parse against the
	// current configuration). A preflight failure is not retried.
	Preflight(step runbook.Step) error
	// Push applies the step's changes. Honors ctx for cancellation.
	Push(ctx context.Context, step runbook.Step) error
	// Applied reports whether the step's changes are already in effect,
	// used to resolve the in-doubt window after a crash between push
	// and commit.
	Applied(step runbook.Step) (bool, error)
	// Observe takes one KPI sample attributed to the given step index.
	Observe(step int) (Sample, error)
}

// stepKey identifies a step for exactly-once accounting. Forward and
// rollback incarnations of the same index are distinct pushes.
func stepKey(step runbook.Step) string {
	return fmt.Sprintf("%s/%d", step.Kind, step.Index)
}

// SimNetwork adapts a live simwindow.Session to the Network interface —
// the "real network" of every test, benchmark and demo in this repo.
// It additionally counts pushes per step so tests can assert the
// exactly-once property directly at the network boundary.
type SimNetwork struct {
	mu      sync.Mutex
	session *simwindow.Session
	applied map[string]bool
	pushes  map[string]int
}

// NewSimNetwork builds a SimNetwork executing rb from base under cfg
// (see simwindow.NewSession for the fault/determinism contract).
func NewSimNetwork(base *netmodel.State, rb *runbook.Runbook, cfg simwindow.Config) (*SimNetwork, error) {
	s, err := simwindow.NewSession(base, rb, cfg)
	if err != nil {
		return nil, err
	}
	return &SimNetwork{
		session: s,
		applied: map[string]bool{},
		pushes:  map[string]int{},
	}, nil
}

// Preflight validates the step shape; the session validated the changes
// against the topology at construction.
func (n *SimNetwork) Preflight(step runbook.Step) error {
	if len(step.Changes) == 0 {
		return fmt.Errorf("step %d has no changes", step.Index)
	}
	return nil
}

// Push applies the step to the live session exactly once; a duplicate
// push of the same step incarnation is an error, which is precisely the
// bug the executor's journal protocol exists to prevent.
func (n *SimNetwork) Push(ctx context.Context, step runbook.Step) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	key := stepKey(step)
	n.pushes[key]++
	if n.applied[key] {
		return fmt.Errorf("duplicate push of step %s", key)
	}
	if err := n.session.Push(step.Changes); err != nil {
		return err
	}
	n.applied[key] = true
	return nil
}

// Applied reports whether the step incarnation has landed.
func (n *SimNetwork) Applied(step runbook.Step) (bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied[stepKey(step)], nil
}

// Observe advances the session one tick and returns its KPI sample.
func (n *SimNetwork) Observe(step int) (Sample, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.session.Advance(), nil
}

// Pushes returns how many times the given step incarnation was pushed
// (test hook for the exactly-once assertion).
func (n *SimNetwork) Pushes(step runbook.Step) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pushes[stepKey(step)]
}

// Utility returns the live session utility without advancing time
// (test hook: after a full rollback it must match the baseline).
func (n *SimNetwork) Utility() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.session.Utility()
}
