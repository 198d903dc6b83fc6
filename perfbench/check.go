package main

import (
	"encoding/json"
	"fmt"

	"magus/internal/campaign"
	"magus/internal/executor"
	"magus/internal/runbook"
	"magus/internal/simwindow"
	"magus/internal/waveplan"
)

// utilityEps absorbs float rounding when comparing a plan's utilities.
const utilityEps = 1e-9

// Facts are what a checked response contributes to the metrics.
type Facts struct {
	// Recovery is a plan's Formula-7 recovery (plan, runbook).
	Recovery float64
	// FloorRatio is a window's final utility over its final floor
	// (simulate).
	FloorRatio float64
	// Summary is the simulated window's summary (simulate).
	Summary *simwindow.Summary
	// Exec is the guarded run's final status (execute).
	Exec *executor.Status
	// Jobs are a finished campaign's job snapshots (campaigns).
	Jobs []campaign.JobSnapshot
	// Season is a finished season (waves).
	Season *waveplan.Result
}

// planReply is the subset of the /plan response the checks read.
type planReply struct {
	UtilityBefore  float64 `json:"utility_before"`
	UtilityUpgrade float64 `json:"utility_upgrade"`
	UtilityAfter   float64 `json:"utility_after"`
	Recovery       float64 `json:"recovery"`
	Evaluations    int     `json:"evaluations"`
}

func decode(body []byte, dst any) error {
	if err := json.Unmarshal(body, dst); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return nil
}

// checkUtilities requires f(C_after) ≥ f(C_upgrade): a mitigation never
// leaves the network worse than doing nothing.
func checkUtilities(upgrade, after float64) error {
	if after < upgrade-utilityEps*max(1, upgrade) {
		return fmt.Errorf("utility_after %.6f below utility_upgrade %.6f", after, upgrade)
	}
	return nil
}

func checkPlan(body []byte) (Facts, error) {
	var r planReply
	if err := decode(body, &r); err != nil {
		return Facts{}, err
	}
	if err := checkUtilities(r.UtilityUpgrade, r.UtilityAfter); err != nil {
		return Facts{}, err
	}
	if r.Evaluations <= 0 {
		return Facts{}, fmt.Errorf("plan reports %d evaluations", r.Evaluations)
	}
	return Facts{Recovery: r.Recovery}, nil
}

func checkRunbook(body []byte) (Facts, error) {
	var rb runbook.Runbook
	if err := decode(body, &rb); err != nil {
		return Facts{}, err
	}
	if err := checkUtilities(rb.ExpectedUpgrade, rb.ExpectedAfter); err != nil {
		return Facts{}, err
	}
	if len(rb.Steps) == 0 {
		return Facts{}, fmt.Errorf("runbook has no steps")
	}
	return Facts{Recovery: rb.ExpectedRecovery}, nil
}

// simulateReply is the /simulate response.
type simulateReply struct {
	Steps   int                `json:"steps"`
	Summary *simwindow.Summary `json:"summary"`
}

func checkSimulate(body []byte, wantTicks int) (Facts, error) {
	var r simulateReply
	if err := decode(body, &r); err != nil {
		return Facts{}, err
	}
	if r.Summary == nil {
		return Facts{}, fmt.Errorf("simulate reply has no summary")
	}
	// A window of n ticks samples ticks 0..n.
	if r.Summary.Ticks != wantTicks+1 {
		return Facts{}, fmt.Errorf("simulate sampled %d ticks, asked for a window of %d", r.Summary.Ticks, wantTicks)
	}
	if r.Summary.PushesApplied+r.Summary.PushesDropped != r.Steps {
		return Facts{}, fmt.Errorf("simulate accounted %d+%d pushes for %d steps",
			r.Summary.PushesApplied, r.Summary.PushesDropped, r.Steps)
	}
	if r.Summary.FinalFloor <= 0 {
		return Facts{}, fmt.Errorf("simulate final floor %g", r.Summary.FinalFloor)
	}
	return Facts{FloorRatio: r.Summary.FinalUtility / r.Summary.FinalFloor, Summary: r.Summary}, nil
}

// executeReply is the GET /execute/{id} response.
type executeReply struct {
	ID       string           `json:"id"`
	Finished bool             `json:"finished"`
	Status   *executor.Status `json:"status"`
	Error    string           `json:"error"`
}

// checkExecute accepts a finished run that ended done or rolled back —
// the two safe states — and nothing else.
func checkExecute(r executeReply) (Facts, error) {
	if r.Status == nil {
		return Facts{}, fmt.Errorf("execute %s: no status", r.ID)
	}
	if r.Error != "" {
		return Facts{}, fmt.Errorf("execute %s: %s", r.ID, r.Error)
	}
	switch r.Status.State {
	case executor.RunDone:
	case executor.RunRolledBack:
		if !r.Status.RolledBack {
			return Facts{}, fmt.Errorf("execute %s: rolled-back state without a full rollback", r.ID)
		}
	default:
		return Facts{}, fmt.Errorf("execute %s ended %q", r.ID, r.Status.State)
	}
	return Facts{Exec: r.Status}, nil
}

// campaignReply is the GET /campaigns/{id} response.
type campaignReply struct {
	Campaign campaign.Snapshot `json:"campaign"`
}

// checkCampaign accepts a finished campaign whose every job is done
// with a mitigation no worse than the upgrade state.
func checkCampaign(s campaign.Snapshot, wantJobs int) (Facts, error) {
	if !s.Finished || s.Cancelled {
		return Facts{}, fmt.Errorf("campaign %s: finished=%v cancelled=%v", s.ID, s.Finished, s.Cancelled)
	}
	if len(s.Jobs) != wantJobs {
		return Facts{}, fmt.Errorf("campaign %s: %d jobs, submitted %d", s.ID, len(s.Jobs), wantJobs)
	}
	for _, j := range s.Jobs {
		if j.State != "done" || j.Result == nil {
			return Facts{}, fmt.Errorf("campaign %s job %d ended %s: %s", s.ID, j.ID, j.State, j.Error)
		}
		if err := checkUtilities(j.Result.UtilityUpgrade, j.Result.UtilityAfter); err != nil {
			return Facts{}, fmt.Errorf("campaign %s job %d: %w", s.ID, j.ID, err)
		}
	}
	return Facts{Jobs: s.Jobs}, nil
}

// waveReply is the GET /waves/{id} response.
type waveReply struct {
	ID        string           `json:"id"`
	State     string           `json:"state"`
	Finished  bool             `json:"finished"`
	Cancelled bool             `json:"cancelled"`
	Error     string           `json:"error"`
	Season    *waveplan.Result `json:"season"`
}

// checkSeason accepts a season that finished: its job is done and every
// scheduled wave either ran or was cancelled behind a halt.
func checkSeason(r waveReply) (Facts, error) {
	if !r.Finished || r.Cancelled || r.State != "done" || r.Season == nil {
		return Facts{}, fmt.Errorf("season %s: state %q finished=%v cancelled=%v: %s",
			r.ID, r.State, r.Finished, r.Cancelled, r.Error)
	}
	if len(r.Season.Waves) == 0 {
		return Facts{}, fmt.Errorf("season %s has no waves", r.ID)
	}
	for _, w := range r.Season.Waves {
		if w.Cancelled {
			continue
		}
		if err := checkUtilities(w.UtilityUpgrade, w.UtilityAfter); err != nil {
			return Facts{}, fmt.Errorf("season %s wave %d: %w", r.ID, w.Wave, err)
		}
		if w.Replay == nil {
			return Facts{}, fmt.Errorf("season %s wave %d was not replayed", r.ID, w.Wave)
		}
	}
	return Facts{Season: r.Season}, nil
}
