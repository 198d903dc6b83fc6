package simwindow

import (
	"fmt"

	"magus/internal/config"
	"magus/internal/search"
)

const (
	// replanSteps caps a correction's accepted moves.
	replanSteps = 80
	// replanBatch groups accepted moves into spliced pushes.
	replanBatch = 2
)

// replan computes corrective pushes from the live simulated state: it
// re-invokes the search stack the planner used (search.Joint, tilt then
// power, through the evaluation engine), seeded from a clone of the
// live state instead of the model's prediction and capped at the
// current floor. This is the paper's proactive search applied
// reactively: the model did not predict the fault, so the correction
// must start from what actually happened. Each returned batch becomes
// one spliced push.
//
// The C_before baseline's loads are refreshed here, lazily: surges
// rescale base weights mid-window, but nothing reads beforeRef until a
// replan.
func (s *Simulator) replan(floor float64) ([][]config.Change, error) {
	if s.beforeRescales != s.sess.rescales {
		s.beforeRef.RecomputeLoads()
		s.beforeRescales = s.sess.rescales
	}
	cfg := &s.sess.cfg
	res, err := search.Joint(s.sess.live.Clone(), s.beforeRef, s.neighbors, search.Options{
		Util:       cfg.Util,
		MaxSteps:   replanSteps,
		CapUtility: floor,
		Workers:    cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("replan search: %w", err)
	}
	var out [][]config.Change
	for start := 0; start < len(res.Steps); start += replanBatch {
		end := min(start+replanBatch, len(res.Steps))
		changes := make([]config.Change, 0, end-start)
		for _, st := range res.Steps[start:end] {
			changes = append(changes, st.Change)
		}
		out = append(out, changes)
	}
	return out, nil
}
