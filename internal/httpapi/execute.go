package httpapi

import (
	"net/http"

	"magus/internal/campaign"
)

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
	var req ExecuteRequest
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
	writeJSON(w, http.StatusAccepted, Accepted{ID: run.ID, Steps: len(rb.Steps)})
}

// handleExecuteStatus reports a run's live per-step progress.
func (s *Server) handleExecuteStatus(w http.ResponseWriter, r *http.Request) {
	run, ok := s.exec.Lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	st := ExecuteStatus{ID: run.ID, Finished: run.Finished(), Status: run.Status()}
	if st.Finished {
		if err := run.Err(); err != nil {
			st.Error = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, st)
}
