package httpapi

import (
	"net/http"

	"magus/internal/campaign"
)

// executeRequest is the POST /execute body: the /plan vocabulary for
// what to execute, plus the campaign ExecSpec tuning the guarded run —
// the same nested shape an execute campaign job uses, so the two
// surfaces cannot drift apart.
type executeRequest struct {
	Scenario string `json:"scenario"`
	Method   string `json:"method"`
	Utility  string `json:"utility"`
	// Workers is the in-search scoring parallelism for the planning
	// phase (0 = sequential).
	Workers int `json:"workers"`
	// FixedPoint is accepted for old clients and ignored.
	FixedPoint bool `json:"fixed_point"`
	// Exec tunes the run (nil = executor defaults, no faults).
	Exec *campaign.ExecSpec `json:"exec"`
}

// handleExecuteSubmit plans the mitigation synchronously against the
// server's own engine (seconds), then hands the runbook to the guarded
// executor asynchronously: 202 with the run ID, progress via
// GET /execute/{id}. The body becomes an execute job's spec, validated
// before planning; its network and executor options come from the same
// ExecSpec.Network an execute campaign job uses. The run outlives the
// request — disconnecting the client does not abandon a half-pushed
// runbook.
func (s *Server) handleExecuteSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	var req executeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec := campaign.JobSpec{
		Class:   s.engine.Net.Class,
		Utility: req.Utility,
		Workers: req.Workers,
		Kind:    campaign.KindExecute,
		Exec:    req.Exec,
	}
	err := resolve(&spec, req.Scenario, req.Method)
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, rb := s.runbook(w, r, spec)
	if rb == nil {
		return
	}
	net, opts, err := spec.Exec.Network(s.engine.Before, rb)
	if err != nil {
		httpError(w, http.StatusBadRequest, "execute: %v", err)
		return
	}
	run, err := s.exec.Start(net, rb, opts)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "execute: %v", err)
		return
	}
	w.Header().Set("Location", "/execute/"+run.ID)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":    run.ID,
		"steps": len(rb.Steps),
	})
}

// handleExecuteStatus reports a run's live per-step progress.
func (s *Server) handleExecuteStatus(w http.ResponseWriter, r *http.Request) {
	run, ok := s.exec.Lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	resp := map[string]any{
		"id":       run.ID,
		"finished": run.Finished(),
		"status":   run.Status(),
	}
	if run.Finished() {
		if err := run.Err(); err != nil {
			resp["error"] = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
