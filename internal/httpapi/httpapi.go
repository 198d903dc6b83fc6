// Package httpapi exposes a Magus engine as an HTTP service — the shape
// in which a network operations center would actually consume it: a
// long-lived daemon that owns the (expensive) market model and answers
// planning queries over JSON.
//
// Endpoints:
//
//	GET  /healthz                          liveness, market summary, campaign metrics
//	GET  /sectors                          the topology as GeoJSON
//	GET  /coverage                         the baseline serving map as GeoJSON
//	GET  /plan?scenario=a&method=joint     plan a mitigation
//	GET  /runbook?scenario=a&method=joint  full runbook (steps + rollback)
//	GET  /simulate?scenario=a&faults=...   execute the runbook through the window simulator
//	GET  /outage?sector=12                 respond to an unplanned outage
//	GET  /schedule?scenario=a&hours=5      rank upgrade start times
//	POST /waves                            schedule an upgrade season (wave scheduler)
//	GET  /waves/{id}                       season status + per-wave results
//	POST /execute                          run a runbook through the guarded executor
//	GET  /execute/{id}                     run status + per-step progress
//	POST /campaigns                        submit a batch of planning jobs
//	GET  /campaigns                        list campaigns
//	GET  /campaigns/{id}                   campaign status + incremental results
//	POST /campaigns/{id}/cancel            cancel a campaign
//
// The synchronous endpoints plan against the server's own engine; a
// campaign job names its market (class + seed) and is planned against an
// engine from the shared single-flight cache, so concurrent jobs on the
// same market pay one build. Handlers are read-only with respect to any
// engine (every plan works on clones) and honor request contexts: a
// disconnected client cancels its in-flight search.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/evalengine"
	"magus/internal/executor"
	"magus/internal/export"
	"magus/internal/fleet"
	"magus/internal/migrate"
	"magus/internal/outageplan"
	"magus/internal/runbook"
	"magus/internal/schedule"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/waveplan"
)

// Wire-name tables shared by the query-parameter and campaign-body
// parsers, so the two surfaces cannot drift apart.
var (
	classByName = map[string]topology.AreaClass{
		"rural": topology.Rural, "suburban": topology.Suburban, "urban": topology.Urban,
	}
	scenarioByName = map[string]upgrade.Scenario{
		"": upgrade.SingleSector, "a": upgrade.SingleSector,
		"b": upgrade.FullSite, "c": upgrade.FourCorners,
	}
	methodByName = map[string]core.Method{
		"": core.Joint, "power": core.PowerOnly, "tilt": core.TiltOnly,
		"joint": core.Joint, "naive": core.NaiveBaseline, "anneal": core.Annealed,
	}
)

// Server wraps an engine with HTTP handlers. Construct with NewServer;
// it implements http.Handler.
type Server struct {
	engine  *core.Engine
	orch    *campaign.Orchestrator
	mux     *http.ServeMux
	anchor  export.Anchor
	nodeID  string
	started time.Time

	// coord, when set, makes this server the fleet coordinator: the
	// /fleet/* control endpoints come up and /campaigns fans out across
	// the fleet instead of the local orchestrator.
	coord *fleet.Coordinator

	// exec owns the asynchronous guarded runbook runs behind /execute.
	exec *executor.Manager

	// marketEpochs is the worker-side fencing memory: the highest lease
	// epoch seen per market on POST /fleet/jobs. A dispatch under a lower
	// epoch is a delayed replay of a superseded lease and is refused.
	fleetMu      sync.Mutex
	marketEpochs map[string]int64

	// planner is built lazily (and exactly once) on the first /outage
	// request; precomputation takes seconds.
	plannerOnce sync.Once
	planner     *outageplan.Planner
	plannerErr  error

	// draining stops admission of new planning work (see BeginDrain)
	// while status endpoints keep answering.
	draining atomic.Bool
}

// Options tune optional server subsystems.
type Options struct {
	// Orchestrator overrides the campaign orchestrator (magusd passes one
	// over its own Env; tests inject one with miniature markets). Nil
	// builds the default: a worker pool over a fresh default Env (the
	// default area specs, no model snapshots).
	Orchestrator *campaign.Orchestrator
	// NodeID is the process's stable fleet identity, reported by
	// /healthz; empty generates a fresh (unpersisted) one.
	NodeID string
	// Coordinator, when set, runs this server in coordinator mode: the
	// /fleet control surface is exposed and /campaigns submissions are
	// sharded across the fleet rather than run locally.
	Coordinator *fleet.Coordinator
	// ExecDir, when non-empty, journals each /execute run to its own
	// write-ahead log under this directory so checkpoints survive the
	// process; empty runs /execute unjournaled (guarded, no recovery).
	ExecDir string
}

// NewServer builds the handler tree around an engine with defaults.
func NewServer(engine *core.Engine) *Server { return New(engine, Options{}) }

// New builds the handler tree around an engine.
func New(engine *core.Engine, opts Options) *Server {
	s := &Server{
		engine:       engine,
		orch:         opts.Orchestrator,
		mux:          http.NewServeMux(),
		anchor:       export.Anchor{LatDeg: 40.7, LonDeg: -74.0},
		nodeID:       opts.NodeID,
		started:      time.Now(),
		coord:        opts.Coordinator,
		exec:         executor.NewManager(opts.ExecDir),
		marketEpochs: make(map[string]int64),
	}
	if s.nodeID == "" {
		s.nodeID = fleet.NewNodeID()
	}
	if s.orch == nil {
		env := &campaign.Env{Engines: campaign.NewEngineCache(0)}
		var err error
		s.orch, err = campaign.New(campaign.Config{Build: env.Engine, Cache: env.Engines})
		if err != nil {
			panic(err) // only reachable on a nil Build, which we set
		}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /sectors", s.handleSectors)
	s.mux.HandleFunc("GET /coverage", s.handleCoverage)
	s.mux.HandleFunc("GET /plan", s.handlePlan)
	s.mux.HandleFunc("GET /runbook", s.handleRunbook)
	s.mux.HandleFunc("GET /simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /outage", s.handleOutage)
	s.mux.HandleFunc("GET /schedule", s.handleSchedule)
	// The wave surface is served in both modes; submission routes to the
	// local orchestrator or across the fleet like /campaigns does.
	s.mux.HandleFunc("POST /waves", s.handleWaveSubmit)
	s.mux.HandleFunc("GET /waves/{id}", s.handleWaveStatus)
	// The execute surface runs guarded runbooks against this node's own
	// market in both modes (cross-market execution rides /campaigns
	// with kind "execute").
	s.mux.HandleFunc("POST /execute", s.handleExecuteSubmit)
	s.mux.HandleFunc("GET /execute/{id}", s.handleExecuteStatus)
	if s.coord != nil {
		// Coordinator mode: the campaign surface fans out across the
		// fleet, and the fleet control endpoints come up.
		s.mux.HandleFunc("POST /campaigns", s.handleCampaignSubmit)
		s.mux.HandleFunc("GET /campaigns", s.handleFleetList)
		s.mux.HandleFunc("GET /campaigns/{id}", s.handleFleetCampaign)
		s.mux.HandleFunc("POST /campaigns/{id}/cancel", s.handleFleetCancel)
		s.mux.HandleFunc("POST /fleet/join", s.handleFleetJoin)
		s.mux.HandleFunc("POST /fleet/heartbeat", s.handleFleetHeartbeat)
		s.mux.HandleFunc("POST /fleet/leave", s.handleFleetLeave)
		s.mux.HandleFunc("POST /fleet/drain", s.handleFleetDrain)
		s.mux.HandleFunc("POST /fleet/evict", s.handleFleetEvict)
		s.mux.HandleFunc("GET /fleet/status", s.handleFleetStatus)
	} else {
		s.mux.HandleFunc("POST /campaigns", s.handleCampaignSubmit)
		s.mux.HandleFunc("GET /campaigns", s.handleCampaignList)
		s.mux.HandleFunc("GET /campaigns/{id}", s.handleCampaignStatus)
		s.mux.HandleFunc("POST /campaigns/{id}/cancel", s.handleCampaignCancel)
		// Worker-side dispatch sink; epoch-fenced per market.
		s.mux.HandleFunc("POST /fleet/jobs", s.handleFleetDispatch)
	}
	return s
}

// Close stops the campaign worker pool, cancelling running campaigns.
func (s *Server) Close() { s.orch.Close() }

// Orchestrator exposes the server's campaign orchestrator (the daemon
// drains it on shutdown).
func (s *Server) Orchestrator() *campaign.Orchestrator { return s.orch }

// BeginDrain flips the server into drain mode: endpoints that admit new
// planning work answer 503 with a Retry-After header, while status and
// read-only endpoints (healthz, campaign status, cancel) keep working so
// operators and load balancers can watch the drain complete.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// drainRetryAfter is the Retry-After hint handed to refused clients: by
// then the replacement instance should be up.
const drainRetryAfter = "30"

// admit guards an admission endpoint. A refusal is written for the
// caller when the server is draining.
func (s *Server) admit(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return true
	}
	w.Header().Set("Retry-After", drainRetryAfter)
	httpError(w, http.StatusServiceUnavailable, "server is draining")
	return false
}

// maxBodyBytes caps request bodies: a campaign submission is a few KB,
// so anything over 1 MB is a client bug or abuse, not a bigger batch.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body under the size cap, writing a
// structured error on failure: 413 for oversized bodies, 400 with the
// offending offset or field for malformed ones.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil && dec.More() {
		writeJSON(w, http.StatusBadRequest, APIError{
			Error: "malformed JSON body", Detail: "trailing data after JSON value",
		})
		return false
	}
	if err == nil {
		return true
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxErr.Limit)
		return false
	}
	reply := APIError{Error: "malformed JSON body", Detail: err.Error()}
	var syntaxErr *json.SyntaxError
	var typeErr *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syntaxErr):
		reply.Offset = syntaxErr.Offset
	case errors.As(err, &typeErr):
		reply.Field = &typeErr.Field
		reply.Detail = typeErrorDetail(typeErr)
	}
	writeJSON(w, http.StatusBadRequest, reply)
	return false
}

// typeErrorDetail describes a JSON type mismatch by the JSON value, the
// field path and the kind of value the field takes. encoding/json's own
// message names Go types, which would change the reply whenever a type
// is renamed or a Go release rewords it.
func typeErrorDetail(e *json.UnmarshalTypeError) string {
	into := "the body"
	if e.Field != "" {
		into = "field " + e.Field
	}
	return fmt.Sprintf("cannot unmarshal %s into %s of kind %s", e.Value, into, e.Type.Kind())
}

// ServeHTTP dispatches to the handler tree. A request no route matches
// keeps the mux's status (404, or 405 with its Allow header) but gets
// an APIError body in place of the mux's plain text.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, pattern := s.mux.Handler(r); pattern == "" {
		w = &unrouted{ResponseWriter: w, r: r}
	}
	s.mux.ServeHTTP(w, r)
}

// unrouted rewrites the mux's 404 and 405 replies as JSON; any other
// reply (a path-cleaning redirect) passes through.
type unrouted struct {
	http.ResponseWriter
	r        *http.Request
	replaced bool
}

func (u *unrouted) WriteHeader(status int) {
	if status != http.StatusNotFound && status != http.StatusMethodNotAllowed {
		u.ResponseWriter.WriteHeader(status)
		return
	}
	u.replaced = true
	httpError(u.ResponseWriter, status, "%s %s: %s", u.r.Method, u.r.URL.Path, strings.ToLower(http.StatusText(status)))
}

func (u *unrouted) Write(b []byte) (int, error) {
	if u.replaced {
		return len(b), nil
	}
	return u.ResponseWriter.Write(b)
}

// writeJSON emits v with the proper content type.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // headers are already out; nothing useful to do on error
}

// httpError reports a client or server error as JSON.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, APIError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	campaigns := s.orch.Metrics()
	resp := map[string]any{
		"status":    status,
		"node_id":   s.nodeID,
		"uptime_s":  time.Since(s.started).Seconds(),
		"class":     s.engine.Net.Class.String(),
		"sites":     len(s.engine.Net.Sites),
		"sectors":   s.engine.Net.NumSectors(),
		"users":     s.engine.Model.TotalUE(),
		"campaigns": campaigns,
	}
	if s.coord != nil {
		resp["role"] = "coordinator"
	}
	resp["executor"] = map[string]any{
		"active":   s.exec.Active(),
		"counters": s.exec.Counters().Snapshot(),
	}
	if campaigns.Cache != nil && campaigns.Cache.Snapshot != nil {
		resp["model_snapshots"] = campaigns.Cache.Snapshot
	}
	resp["wave_scheduler"] = waveplan.Stats()
	if core := s.engine.Model.Core(); core != nil {
		// The immutable substrate behind this node's serving engine
		// (campaign engines appear under campaigns.engine_cache.shared_cores).
		resp["shared_core"] = map[string]any{"bytes": core.Bytes()}
	}
	if rep := s.engine.Sanitation(); rep != nil {
		resp["sanitation"] = map[string]any{
			"policy":      rep.Policy,
			"clean":       rep.Clean,
			"found":       rep.Found,
			"repaired":    rep.Repaired,
			"quarantined": len(rep.Quarantined),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSectors(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/geo+json")
	if err := export.TopologyGeoJSON(w, s.engine.Net, s.anchor); err != nil {
		httpError(w, http.StatusInternalServerError, "export: %v", err)
	}
}

func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	stride := 1
	if v := r.URL.Query().Get("stride"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad stride %q", v)
			return
		}
		stride = n
	}
	w.Header().Set("Content-Type", "application/geo+json")
	if err := export.CoverageGeoJSON(w, s.engine.Before, s.anchor, stride); err != nil {
		httpError(w, http.StatusInternalServerError, "export: %v", err)
	}
}

// jobSpec parses a request's query into a job of the given kind on the
// server's own market — the shared scenario/method/utility/workers
// parameters, plus the window parameters of a simulate job — and
// validates it with JobSpec.Validate, the check every campaign job
// gets. Any error is the client's.
func (s *Server) jobSpec(q url.Values, kind string) (campaign.JobSpec, error) {
	spec := campaign.JobSpec{Class: s.engine.Net.Class, Utility: q.Get("utility"), Kind: kind}
	if err := resolve(&spec, q.Get("scenario"), q.Get("method")); err != nil {
		return spec, err
	}
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return spec, fmt.Errorf("bad workers %q", v)
		}
		spec.Workers = n
	}
	// fixed selected a retired scoring kernel; clients still send it.
	switch v := q.Get("fixed"); v {
	case "", "0", "false", "1", "true":
	default:
		return spec, fmt.Errorf("bad fixed %q", v)
	}
	if kind == campaign.KindSimulate {
		var err error
		if spec.Sim, err = simSpec(q); err != nil {
			return spec, err
		}
	}
	return spec, spec.Validate()
}

// resolve maps the /plan vocabulary's scenario and method names onto
// spec, naming the first unknown one.
func resolve(spec *campaign.JobSpec, scenario, method string) error {
	var ok bool
	if spec.Scenario, ok = scenarioByName[scenario]; !ok {
		return fmt.Errorf("unknown scenario %q", scenario)
	}
	if spec.Method, ok = methodByName[method]; !ok {
		return fmt.Errorf("unknown method %q", method)
	}
	return nil
}

// simSpec parses /simulate's window parameters.
func simSpec(q url.Values) (*campaign.SimSpec, error) {
	sim := &campaign.SimSpec{
		Faults:  q.Get("faults"),
		Diurnal: q.Get("diurnal") == "1",
		Replan:  q.Get("replan") == "1",
	}
	for _, p := range []struct {
		name  string
		parse func(v string) error
	}{
		{"ticks", func(v string) (err error) { sim.Ticks, err = strconv.Atoi(v); return err }},
		{"noise", func(v string) (err error) { sim.LoadNoise, err = strconv.ParseFloat(v, 64); return err }},
		{"start_hour", func(v string) (err error) { sim.StartHour, err = strconv.ParseFloat(v, 64); return err }},
		{"sim_seed", func(v string) (err error) { sim.Seed, err = strconv.ParseInt(v, 10, 64); return err }},
	} {
		if v := q.Get(p.name); v != "" && p.parse(v) != nil {
			return nil, fmt.Errorf("bad %s %q", p.name, v)
		}
	}
	return sim, nil
}

// planResponse is the JSON shape of a mitigation plan.
type planResponse struct {
	Scenario       string  `json:"scenario"`
	Method         string  `json:"method"`
	Targets        []int   `json:"targets"`
	Neighbors      int     `json:"neighbors"`
	UtilityBefore  float64 `json:"utility_before"`
	UtilityUpgrade float64 `json:"utility_upgrade"`
	UtilityAfter   float64 `json:"utility_after"`
	Recovery       float64 `json:"recovery"`
	SearchSteps    int     `json:"search_steps"`
	Evaluations    int     `json:"evaluations"`
	// Search carries the engine's counters (delta vs full evaluations,
	// worker utilization) for the plan's search.
	Search evalengine.StatsSnapshot `json:"search"`
}

// plan plans the job in the request's query under the request's
// context, so a disconnected client abandons the search.
func (s *Server) plan(r *http.Request) (*core.Plan, error) {
	spec, err := s.jobSpec(r.URL.Query(), campaign.KindPlan)
	if err != nil {
		return nil, err
	}
	return s.mitigate(r.Context(), spec)
}

// mitigate plans a validated job against the server's own engine.
func (s *Server) mitigate(ctx context.Context, spec campaign.JobSpec) (*core.Plan, error) {
	return s.engine.MitigatePlan(core.MitigateRequest{
		Ctx:      ctx,
		Scenario: spec.Scenario,
		Method:   spec.Method,
		Util:     campaign.UtilityByName[spec.Utility],
		Workers:  spec.Workers,
	})
}

// runbook plans a validated job under the request's context and builds
// its gradual-migration runbook: the sequence /runbook serves and
// /simulate and /execute run. On failure it writes the error response
// and returns nil.
func (s *Server) runbook(w http.ResponseWriter, r *http.Request, spec campaign.JobSpec) (*core.Plan, *runbook.Runbook) {
	plan, err := s.mitigate(r.Context(), spec)
	if err != nil {
		httpError(w, planStatus(err), "%v", err)
		return nil, nil
	}
	mig, err := plan.GradualMigration(migrate.Options{})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "migrate: %v", err)
		return nil, nil
	}
	rb, err := runbook.Build(plan, mig)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "runbook: %v", err)
		return nil, nil
	}
	return plan, rb
}

// planStatus maps a planning error to an HTTP status: parameter errors
// are the client's fault, a cancelled context is the client hanging up.
func planStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 499 // client closed request (nginx convention)
	}
	return http.StatusBadRequest
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	plan, err := s.plan(r)
	if err != nil {
		httpError(w, planStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, planResponse{
		Scenario:       plan.Scenario.String(),
		Method:         plan.Method.String(),
		Targets:        plan.Targets,
		Neighbors:      len(plan.Neighbors),
		UtilityBefore:  plan.UtilityBefore,
		UtilityUpgrade: plan.UtilityUpgrade,
		UtilityAfter:   plan.UtilityAfter,
		Recovery:       plan.RecoveryRatio(),
		SearchSteps:    len(plan.Search.Steps),
		Evaluations:    plan.Search.Evaluations,
		Search:         plan.Search.Stats,
	})
}

func (s *Server) handleRunbook(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	spec, err := s.jobSpec(r.URL.Query(), campaign.KindPlan)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, rb := s.runbook(w, r, spec); rb != nil {
		writeJSON(w, http.StatusOK, rb)
	}
}

// handleSimulate plans the mitigation, builds its runbook, and executes
// it through the upgrade-window simulator. Beyond the /plan parameters
// it accepts:
//
//	ticks       window length (default: one tick per push + settle)
//	sim_seed    simulator seed (load noise)
//	faults      fault script, e.g. "push-fail@2,sector-down@20:17"
//	diurnal=1   evolve load along the default diurnal profile
//	noise       per-tick lognormal load jitter sigma
//	start_hour  local hour at tick 0
//	replan=1    enable the search-based replanner on floor breaches
//	series=1    include the full per-tick series in the response
//
// The query becomes a simulate job's spec, validated before planning
// and run exactly as a campaign's simulate job runs it.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	q := r.URL.Query()
	spec, err := s.jobSpec(q, campaign.KindSimulate)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	plan, rb := s.runbook(w, r, spec)
	if rb == nil {
		return
	}
	out, err := spec.Sim.Run(r.Context(), s.engine.Before, rb, spec.Workers)
	if err != nil {
		httpError(w, planStatus(err), "simulate: %v", err)
		return
	}
	reply := SimulateReply{
		Method:   plan.Method.String(),
		Scenario: plan.Scenario.String(),
		Steps:    len(rb.Steps),
		Summary:  out.Summary,
	}
	if q.Get("series") == "1" {
		reply.Series = out.Series
	}
	writeJSON(w, http.StatusOK, reply)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	plan, err := s.plan(r)
	if err != nil {
		httpError(w, planStatus(err), "%v", err)
		return
	}
	hours := 5
	if v := r.URL.Query().Get("hours"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad hours %q", v)
			return
		}
		hours = n
	}
	rec, err := schedule.Plan(plan, schedule.DefaultProfile(), hours)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"duration_hours": hours,
		"best_start":     rec.Best().StartHour,
		"windows":        rec.Windows,
	})
}

func (s *Server) handleOutage(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	sector, err := strconv.Atoi(r.URL.Query().Get("sector"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad sector %q", r.URL.Query().Get("sector"))
		return
	}
	if sector < 0 || sector >= s.engine.Net.NumSectors() {
		httpError(w, http.StatusNotFound, "sector %d out of range", sector)
		return
	}
	s.plannerOnce.Do(func() {
		// Lazy one-time precomputation; subsequent outages are lookups.
		// Deliberately not bound to r.Context(): the table outlives this
		// request, and one impatient client must not poison it for all.
		s.planner, s.plannerErr = outageplan.New(s.engine, nil, outageplan.Options{})
	})
	if s.plannerErr != nil {
		httpError(w, http.StatusInternalServerError, "outage planning: %v", s.plannerErr)
		return
	}
	resp, err := s.planner.RespondContext(r.Context(), sector, 3)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = 499
		}
		httpError(w, status, "respond: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sector":           sector,
		"precomputed":      resp.Precomputed,
		"utility_outage":   resp.UtilityOutage,
		"utility_applied":  resp.UtilityApplied,
		"utility_refined":  resp.UtilityRefined,
		"refinement_steps": resp.RefinementSteps,
	})
}

// parseCampaignSpecs decodes a POST /campaigns body into job specs,
// writing the error response itself on failure. It only maps wire
// names; the local orchestrator and the fleet coordinator both judge
// the specs with JobSpec.Validate in Submit, so the two surfaces accept
// exactly the same campaigns.
func parseCampaignSpecs(w http.ResponseWriter, r *http.Request) ([]campaign.JobSpec, bool) {
	var req CampaignRequest
	if !decodeBody(w, r, &req) {
		return nil, false
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "campaign has no jobs")
		return nil, false
	}
	specs := make([]campaign.JobSpec, len(req.Jobs))
	for i, jr := range req.Jobs {
		class, ok := classByName[jr.Class]
		if !ok {
			httpError(w, http.StatusBadRequest, "job %d: unknown class %q", i, jr.Class)
			return nil, false
		}
		specs[i] = campaign.JobSpec{
			Class:      class,
			Seed:       jr.Seed,
			Utility:    jr.Utility,
			Timeout:    time.Duration(jr.TimeoutMS) * time.Millisecond,
			Workers:    jr.Workers,
			AnnealSeed: jr.AnnealSeed,
			Kind:       jr.Kind,
			Sim:        jr.Sim,
			Wave:       jr.Wave,
			Exec:       jr.Exec,
		}
		if err := resolve(&specs[i], jr.Scenario, jr.Method); err != nil {
			httpError(w, http.StatusBadRequest, "job %d: %v", i, err)
			return nil, false
		}
	}
	return specs, true
}

// handleCampaignSubmit admits a campaign: on the local orchestrator, or
// sharded across the fleet when this node coordinates one.
func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	specs, ok := parseCampaignSpecs(w, r)
	if !ok {
		return
	}
	id, ok := s.submit(w, specs)
	if !ok {
		return
	}
	w.Header().Set("Location", "/campaigns/"+id)
	writeJSON(w, http.StatusAccepted, Accepted{ID: id, Jobs: len(specs)})
}

// submit hands validated-on-admission specs to the fleet coordinator,
// or to the local orchestrator when this node is not one, and returns
// the campaign ID. A refusal is written for the caller.
func (s *Server) submit(w http.ResponseWriter, specs []campaign.JobSpec) (string, bool) {
	var id string
	var err error
	if s.coord != nil {
		var view fleet.CampaignView
		view, err = s.coord.Submit(specs)
		id = view.ID
	} else {
		var c *campaign.Campaign
		if c, err = s.orch.Submit(specs); err == nil {
			id = c.ID
		}
	}
	if err != nil {
		submitError(w, err)
		return "", false
	}
	return id, true
}

// submitError writes the response for a refused Submit: an invalid spec
// is the client's fault (400); a full queue is 503, and a draining
// orchestrator or a fleet with no live workers is 503 with a
// Retry-After, since capacity should be back by then.
func submitError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, campaign.ErrDraining), errors.Is(err, fleet.ErrNoWorkers):
		w.Header().Set("Retry-After", drainRetryAfter)
		status = http.StatusServiceUnavailable
	case errors.Is(err, campaign.ErrQueueFull):
		status = http.StatusServiceUnavailable
	}
	httpError(w, status, "%v", err)
}

func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"campaigns": s.orch.CampaignIDs(),
		"metrics":   s.orch.Metrics(),
	})
}

// lookupCampaign resolves {id} or writes a 404.
func (s *Server) lookupCampaign(w http.ResponseWriter, r *http.Request) (*campaign.Campaign, bool) {
	id := r.PathValue("id")
	c, ok := s.orch.Lookup(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign %q", id)
	}
	return c, ok
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookupCampaign(w, r)
	if !ok {
		return
	}
	snap := c.Snapshot()
	metrics := s.orch.Metrics()
	writeJSON(w, http.StatusOK, CampaignStatus{Campaign: snap, Metrics: &metrics})
}

func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookupCampaign(w, r)
	if !ok {
		return
	}
	c.Cancel("client request")
	writeJSON(w, http.StatusOK, CampaignStatus{Campaign: c.Snapshot()})
}
