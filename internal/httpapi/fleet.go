package httpapi

// Fleet endpoints. A worker (default mode) exposes POST /fleet/jobs —
// the coordinator's dispatch sink, fenced per market by lease epoch. A
// coordinator (Options.Coordinator set) exposes the control surface
// (join/heartbeat/leave/drain/evict/status) and re-maps /campaigns onto
// the fleet: submissions shard across workers by market, status reads
// aggregate the fleet-level view.

import (
	"errors"
	"net/http"

	"magus/internal/fleet"
)

// --- worker side --------------------------------------------------------

// handleFleetDispatch accepts a market's job group from the
// coordinator. The per-market epoch check is the worker-side half of
// the lease fence: once a dispatch under epoch E arrives, any dispatch
// under a lower epoch is a delayed replay of a superseded lease and is
// refused with 409, so a partitioned coordinator (or a slow retry)
// cannot double-run work that has been re-placed.
func (s *Server) handleFleetDispatch(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	var req fleet.DispatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Market == "" || req.Epoch <= 0 || len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "dispatch needs market, epoch and jobs")
		return
	}
	s.fleetMu.Lock()
	if cur := s.marketEpochs[req.Market]; req.Epoch < cur {
		s.fleetMu.Unlock()
		httpError(w, http.StatusConflict,
			"stale lease for market %s: dispatched epoch %d, worker has seen %d",
			req.Market, req.Epoch, cur)
		return
	}
	s.marketEpochs[req.Market] = req.Epoch
	s.fleetMu.Unlock()

	c, err := s.orch.Submit(req.Jobs)
	if err != nil {
		submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, fleet.DispatchResponse{ID: c.ID, Jobs: len(req.Jobs)})
}

// --- coordinator side ---------------------------------------------------

func (s *Server) handleFleetList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": s.coord.CampaignIDs()})
}

// fleetCampaignReply is a coordinator's GET /campaigns/{id} and
// cancel reply. Its jobs carry market, node and epoch beyond a
// CampaignStatus's, and magusctl reads it as a CampaignStatus
// (TestFleetCampaignReadsAsCampaignStatus in internal/fleet).
type fleetCampaignReply struct {
	Campaign fleet.CampaignView `json:"campaign"`
}

func (s *Server) handleFleetCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.coord.Campaign(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	writeJSON(w, http.StatusOK, fleetCampaignReply{Campaign: view})
}

func (s *Server) handleFleetCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.coord.Cancel(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, fleetCampaignReply{Campaign: view})
}

func (s *Server) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	var req fleet.JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ack, err := s.coord.Join(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb fleet.Heartbeat
	if !decodeBody(w, r, &hb) {
		return
	}
	if err := s.coord.RecordHeartbeat(hb); err != nil {
		httpError(w, nodeStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleFleetLeave(w http.ResponseWriter, r *http.Request) {
	var req fleet.LeaveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.coord.Leave(r.Context(), req.NodeID); err != nil {
		httpError(w, nodeStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleFleetDrain(w http.ResponseWriter, r *http.Request) {
	var req fleet.NodeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.coord.DrainNode(req.NodeID); err != nil {
		httpError(w, nodeStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": req.NodeID})
}

func (s *Server) handleFleetEvict(w http.ResponseWriter, r *http.Request) {
	var req fleet.NodeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.coord.EvictNode(req.NodeID); err != nil {
		httpError(w, nodeStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "evicted": req.NodeID})
}

func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.Status(r.Context()))
}

// nodeStatus maps a node-targeting fleet error to its HTTP status: an
// unknown node is 404 (the signal a worker re-joins on).
func nodeStatus(err error) int {
	if errors.Is(err, fleet.ErrUnknownNode) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}
