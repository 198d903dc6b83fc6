package httpapi

import (
	"net/http"
	"time"

	"magus/internal/campaign"
	"magus/internal/waveplan"
)

// waveRequest is the body of POST /waves: one upgrade season. The
// engine-selection and search fields mirror a campaign job; Wave holds
// the season's calendar and replay configuration (nil accepts every
// scheduler default).
type waveRequest struct {
	Class      string             `json:"class"`
	Seed       int64              `json:"seed"`
	Method     string             `json:"method"`
	Utility    string             `json:"utility"`
	TimeoutMS  int64              `json:"timeout_ms"`
	Workers    int                `json:"workers"`
	FixedPoint bool               `json:"fixed_point"`
	AnnealSeed int64              `json:"anneal_seed"`
	Wave       *campaign.WaveSpec `json:"wave"`
}

// waveStatus is the response of GET /waves/{id}: the projection of the
// underlying one-job campaign onto the season it schedules.
type waveStatus struct {
	ID        string           `json:"id"`
	State     string           `json:"state"`
	Finished  bool             `json:"finished"`
	Cancelled bool             `json:"cancelled"`
	Error     string           `json:"error,omitempty"`
	Season    *waveplan.Result `json:"season,omitempty"`
}

// parseWaveSpec decodes a POST /waves body into the one-job campaign
// spec that carries it, writing the error response itself on failure.
// Submit validates the spec.
func parseWaveSpec(w http.ResponseWriter, r *http.Request) (campaign.JobSpec, bool) {
	var req waveRequest
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
		FixedPoint: req.FixedPoint,
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
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id})
}

// handleWaveStatus projects the season's campaign onto waveStatus.
func (s *Server) handleWaveStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := waveStatus{ID: id}
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
