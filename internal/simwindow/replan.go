package simwindow

import (
	"fmt"

	"magus/internal/config"
	"magus/internal/netmodel"
	"magus/internal/search"
	"magus/internal/utility"
)

// ReplanContext is what the simulator hands a Replanner when the live
// utility has sat below the floor for the grace period.
type ReplanContext struct {
	// Live is a clone of the in-field state at the current load; the
	// replanner may mutate it freely while searching.
	Live *netmodel.State
	// Baseline is the C_before reference at the current load. Treat it
	// as read-only: it feeds the degraded-grid set exactly as the
	// planning-time search uses the engine's baseline.
	Baseline *netmodel.State
	// Targets are the runbook's off-air sectors; Neighbors the sectors
	// eligible for corrective tuning.
	Targets   []int
	Neighbors []int
	// Util is the objective; Floor the current-load f(C_after) the
	// correction should restore.
	Util  utility.Func
	Floor float64
	// Workers is the candidate-scoring parallelism (the same knob as
	// core.MitigateRequest.Workers; corrections do not depend on it).
	Workers int
}

// Replanner computes corrective configuration pushes from the live
// simulated state. Each returned batch becomes one spliced push,
// executed on consecutive ticks so the correction stays gradual.
type Replanner interface {
	Replan(rc *ReplanContext) ([][]config.Change, error)
}

// SearchReplanner is the default replanner: it re-invokes the same
// search stack the planner used (Algorithm 1 power tuning through the
// evaluation engine), but seeded from the live simulated state instead
// of the model's predicted one, capped at the floor utility. This is
// the paper's proactive search applied reactively — the model did not
// predict the fault, so the correction must start from measurements of
// what actually happened.
type SearchReplanner struct {
	// MaxSteps caps accepted corrective moves (default 80).
	MaxSteps int
	// BatchSize groups accepted moves into spliced pushes (default 2).
	BatchSize int
	// PowerOnly restricts the correction to power moves; the default
	// joint search (tilt then power) has more freedom to re-cover the
	// users a dead neighbor strands.
	PowerOnly bool
}

// Replan runs the search from the live state and groups the accepted
// moves into push batches.
func (r *SearchReplanner) Replan(rc *ReplanContext) ([][]config.Change, error) {
	maxSteps := r.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 80
	}
	batch := r.BatchSize
	if batch <= 0 {
		batch = 2
	}
	neighbors := search.SortByDistanceTo(rc.Live, rc.Neighbors, rc.Targets)
	opts := search.Options{
		Util:       rc.Util,
		MaxSteps:   maxSteps,
		CapUtility: rc.Floor,
		Workers:    rc.Workers,
	}
	var res *search.Result
	var err error
	if r.PowerOnly {
		res, err = search.Power(rc.Live, rc.Baseline, neighbors, opts)
	} else {
		res, err = search.Joint(rc.Live, rc.Baseline, neighbors, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("replan search: %w", err)
	}
	var out [][]config.Change
	for start := 0; start < len(res.Steps); start += batch {
		end := start + batch
		if end > len(res.Steps) {
			end = len(res.Steps)
		}
		changes := make([]config.Change, 0, end-start)
		for _, st := range res.Steps[start:end] {
			changes = append(changes, st.Change)
		}
		out = append(out, changes)
	}
	return out, nil
}

// replan builds the context and invokes the configured replanner. The
// C_before baseline's loads are refreshed here, lazily: surges rescale
// base weights mid-window, but nothing reads beforeRef until a replan.
func (s *Simulator) replan(floor float64) ([][]config.Change, error) {
	if s.beforeRescales != s.sess.rescales {
		s.beforeRef.RecomputeLoads()
		s.beforeRescales = s.sess.rescales
	}
	cfg := &s.sess.cfg
	rc := &ReplanContext{
		Live:      s.sess.live.Clone(),
		Baseline:  s.beforeRef,
		Targets:   s.rb.Targets,
		Neighbors: s.neighbors,
		Util:      cfg.Util,
		Floor:     floor,
		Workers:   cfg.Workers,
	}
	return cfg.Replanner.Replan(rc)
}
