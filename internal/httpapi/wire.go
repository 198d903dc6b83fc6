package httpapi

// Wire types: every request and reply body that magusctl exchanges
// with magusd, declared once. The handlers encode and decode these
// types and magusctl builds and reads the same ones, so the compiler
// checks the client against the server.
//
// Reply fields are declared in alphabetical JSON-name order: these
// replies were encoded from maps, whose keys encoding/json sorts, and
// that order keeps their bytes (TestReplyFieldsSorted). WaveStatus was
// always a struct and keeps its own order.

import (
	"magus/internal/campaign"
	"magus/internal/executor"
	"magus/internal/simwindow"
	"magus/internal/waveplan"
)

// APIError is the body of every error reply. Error is always present;
// Detail, Field and Offset qualify a malformed request body.
type APIError struct {
	Detail string `json:"detail,omitempty"`
	Error  string `json:"error"`
	// Field is set on every type error, empty too: a top-level
	// mismatch (an array where an object belongs) has no field path.
	Field *string `json:"field,omitempty"`
	// Offset is a syntax error's byte offset, never 0.
	Offset int64 `json:"offset,omitempty"`
}

// Accepted is the 202 reply of POST /campaigns (with Jobs), /execute
// (with Steps) and /waves: the ID to poll.
type Accepted struct {
	ID    string `json:"id"`
	Jobs  int    `json:"jobs,omitempty"`
	Steps int    `json:"steps,omitempty"`
}

// CampaignJobRequest is one job in a POST /campaigns body. Names reuse
// the /plan query vocabulary (scenario a|b|c, method
// power|tilt|joint|naive|anneal, utility performance|coverage).
type CampaignJobRequest struct {
	Class     string `json:"class"`
	Seed      int64  `json:"seed"`
	Scenario  string `json:"scenario"`
	Method    string `json:"method"`
	Utility   string `json:"utility"`
	TimeoutMS int64  `json:"timeout_ms"`
	// Workers is the in-search scoring parallelism (0 = orchestrator
	// default).
	Workers int `json:"workers"`
	// FixedPoint is accepted for old clients and ignored.
	FixedPoint bool `json:"fixed_point"`
	// AnnealSeed seeds the anneal method's random walk (0 = default).
	AnnealSeed int64 `json:"anneal_seed"`
	// Kind is "plan" (default), "simulate", "wave" or "execute"; Sim
	// tunes simulate jobs, Wave tunes wave jobs, Exec tunes execute
	// jobs.
	Kind string             `json:"kind"`
	Sim  *campaign.SimSpec  `json:"sim"`
	Wave *campaign.WaveSpec `json:"wave"`
	Exec *campaign.ExecSpec `json:"exec"`
}

// CampaignRequest is the POST /campaigns body.
type CampaignRequest struct {
	Jobs []CampaignJobRequest `json:"jobs"`
}

// CampaignStatus is the reply of GET /campaigns/{id} and, without
// Metrics, of POST /campaigns/{id}/cancel. A fleet coordinator answers
// with its own campaign view, which reads as a CampaignStatus.
type CampaignStatus struct {
	Campaign campaign.Snapshot `json:"campaign"`
	Metrics  *campaign.Metrics `json:"metrics,omitempty"`
}

// ExecuteRequest is the POST /execute body: the /plan vocabulary for
// what to execute, plus the campaign ExecSpec tuning the guarded run —
// the same nested shape an execute campaign job uses.
type ExecuteRequest struct {
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

// ExecuteStatus is the reply of GET /execute/{id}: the run's live
// per-step progress, and its error once it finished with one.
type ExecuteStatus struct {
	Error    string           `json:"error,omitempty"`
	Finished bool             `json:"finished"`
	ID       string           `json:"id"`
	Status   *executor.Status `json:"status"`
}

// SimulateReply is the reply of GET /simulate; Series is present only
// with series=1.
type SimulateReply struct {
	Method   string            `json:"method"`
	Scenario string            `json:"scenario"`
	Series   []simwindow.Tick  `json:"series,omitempty"`
	Steps    int               `json:"steps"`
	Summary  simwindow.Summary `json:"summary"`
}

// WaveRequest is the POST /waves body: one upgrade season. The
// engine-selection and search fields mirror a campaign job; Wave holds
// the season's calendar and replay configuration (nil accepts every
// scheduler default).
type WaveRequest struct {
	Class     string `json:"class"`
	Seed      int64  `json:"seed"`
	Method    string `json:"method"`
	Utility   string `json:"utility"`
	TimeoutMS int64  `json:"timeout_ms"`
	Workers   int    `json:"workers"`
	// FixedPoint is accepted for old clients and ignored.
	FixedPoint bool               `json:"fixed_point"`
	AnnealSeed int64              `json:"anneal_seed"`
	Wave       *campaign.WaveSpec `json:"wave"`
}

// WaveStatus is the reply of GET /waves/{id}: the projection of the
// underlying one-job campaign onto the season it schedules.
type WaveStatus struct {
	ID        string           `json:"id"`
	State     string           `json:"state"`
	Finished  bool             `json:"finished"`
	Cancelled bool             `json:"cancelled"`
	Error     string           `json:"error,omitempty"`
	Season    *waveplan.Result `json:"season,omitempty"`
}
