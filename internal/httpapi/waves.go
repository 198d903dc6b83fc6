package httpapi

import (
	"net/http"
	"time"

	"magus/internal/campaign"
)

// parseWaveSpec decodes a POST /waves body into the one-job campaign
// spec that carries it, writing the error response itself on failure.
// Submit validates the spec.
func parseWaveSpec(w http.ResponseWriter, r *http.Request) (campaign.JobSpec, bool) {
	var req WaveRequest
	if !decodeBody(w, r, &req) {
		return campaign.JobSpec{}, false
	}
	class, ok := classByName[req.Class]
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown class %q", req.Class)
		return campaign.JobSpec{}, false
	}
	method, ok := methodByName[req.Method]
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown method %q", req.Method)
		return campaign.JobSpec{}, false
	}
	return campaign.JobSpec{
		Class:      class,
		Seed:       req.Seed,
		Method:     method,
		Utility:    req.Utility,
		Timeout:    time.Duration(req.TimeoutMS) * time.Millisecond,
		Workers:    req.Workers,
		AnnealSeed: req.AnnealSeed,
		Kind:       campaign.KindWave,
		Wave:       req.Wave,
	}, true
}

// handleWaveSubmit admits an upgrade season. The season runs as a
// one-job wave campaign — on the local orchestrator, or sharded to a
// worker when this node coordinates a fleet — and the returned ID is
// polled via GET /waves/{id}.
func (s *Server) handleWaveSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	spec, ok := parseWaveSpec(w, r)
	if !ok {
		return
	}
	id, ok := s.submit(w, []campaign.JobSpec{spec})
	if !ok {
		return
	}
	w.Header().Set("Location", "/waves/"+id)
	writeJSON(w, http.StatusAccepted, Accepted{ID: id})
}

// handleWaveStatus projects the season's campaign onto WaveStatus.
func (s *Server) handleWaveStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := WaveStatus{ID: id}
	if s.coord != nil {
		view, ok := s.coord.Campaign(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown wave %q", id)
			return
		}
		st.Finished, st.Cancelled = view.Finished, view.Cancelled
		if len(view.Jobs) > 0 {
			j := view.Jobs[0]
			st.State, st.Error = j.State, j.Error
			if j.Result != nil {
				st.Season = j.Result.Wave
			}
		}
	} else {
		c, ok := s.orch.Lookup(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown wave %q", id)
			return
		}
		snap := c.Snapshot()
		st.Finished, st.Cancelled = snap.Finished, snap.Cancelled
		if len(snap.Jobs) > 0 {
			j := snap.Jobs[0]
			st.State, st.Error = j.State, j.Error
			if j.Result != nil {
				st.Season = j.Result.Wave
			}
		}
	}
	writeJSON(w, http.StatusOK, st)
}
