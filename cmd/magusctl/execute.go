// The execute subcommand: run a planned runbook through magusd's
// guarded executor (see internal/executor) and watch it step by step.
// `run` submits the runbook (scenario/method plus optional chaos and
// watchdog tuning) and polls GET /execute/{id}, rendering each step's
// state, push attempts and last KPI sample; `status` re-polls an
// already-submitted run by ID.
//
//	magusctl execute run    [-server http://localhost:8080] [-scenario a] [-method joint]
//	                        [-chaos "push-error@2x2,kpi-breach@3"] [-sim-seed 1] [-diurnal]
//	                        [-retries 3] [-verify 3] [-grace 2]
//	magusctl execute status -id <id> [-server ...]
//
// Exit codes follow the magusctl contract (see doc.go): 0 when the run
// completes with every step verified; 2 when it halts — the watchdog or
// retry policy stopped the upgrade and the rollback sequence was
// applied (the guard worked; the upgrade did not happen); 3 when the
// server stayed unreachable or draining through every retry.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"time"

	"magus/internal/campaign"
	"magus/internal/httpapi"
)

func runExecute(args []string) {
	if len(args) < 1 {
		fail("usage: magusctl execute <run|status> [flags]")
	}
	verb := args[0]
	fs := flag.NewFlagSet("magusctl execute "+verb, flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "magusd base URL")
	poll := fs.Duration("poll", 250*time.Millisecond, "status poll interval")
	retries := fs.Int("retries-http", 3, "attempts per request when the server is draining or unreachable")
	retryBackoff := fs.Duration("retry-backoff-http", 500*time.Millisecond, "initial retry delay (doubles per attempt, jittered)")

	// run flags
	scenarioFlag := fs.String("scenario", "a", "upgrade scenario: a (single sector), b (full site), c (four corners)")
	method := fs.String("method", "joint", "tuning method: power, tilt, joint, naive, anneal")
	utilFlag := fs.String("utility", "performance", "objective: performance, coverage")
	workers := fs.Int("workers", 0, "planning-phase scoring parallelism (0 = server default)")
	chaosFlag := fs.String("chaos", "", `fault script, e.g. "push-error@2x2,push-delay@3+50,kpi-breach@4,sector-down@5:17"`)
	simSeed := fs.Int64("sim-seed", 0, "live-session seed (load noise)")
	diurnal := fs.Bool("diurnal", false, "evolve load along the default diurnal profile")
	startHour := fs.Float64("start-hour", 0, "local hour at tick 0 (0 = default 2)")
	noise := fs.Float64("noise", 0, "per-tick lognormal load jitter sigma")
	deadline := fs.Duration("step-deadline", 0, "per-step push deadline (0 = executor default)")
	pushRetries := fs.Int("retries", 0, "per-step push retry budget (0 = executor default)")
	backoff := fs.Duration("backoff", 0, "initial push retry delay (0 = executor default)")
	verify := fs.Int("verify", 0, "at-or-above-floor samples that clear a step (0 = default)")
	grace := fs.Int("grace", 0, "consecutive below-floor samples tolerated before halting (0 = default)")
	execSeed := fs.Int64("exec-seed", 0, "executor retry-jitter seed")

	// status flags
	id := fs.String("id", "", "run ID to poll (required for status)")
	_ = fs.Parse(args[1:])
	r := newRetrier(*retries, *retryBackoff)

	switch verb {
	case "run":
		body, err := json.Marshal(httpapi.ExecuteRequest{
			Scenario: *scenarioFlag, Method: *method, Utility: *utilFlag,
			Workers: *workers,
			Exec: &campaign.ExecSpec{
				Seed:           *simSeed,
				Chaos:          *chaosFlag,
				Diurnal:        *diurnal,
				StartHour:      *startHour,
				LoadNoise:      *noise,
				StepDeadlineMS: int64(*deadline / time.Millisecond),
				Retries:        *pushRetries,
				RetryBackoffMS: int64(*backoff / time.Millisecond),
				VerifySamples:  *verify,
				GraceSamples:   *grace,
				ExecSeed:       *execSeed,
			},
		})
		if err != nil {
			fail("encode: %v", err)
		}
		resp := r.do("execute run", func() (*http.Response, error) {
			return http.Post(*server+"/execute", "application/json", bytes.NewReader(body))
		})
		if resp.StatusCode != http.StatusAccepted {
			fail("execute rejected (%d): %s", resp.StatusCode, readAPIError(resp))
		}
		var accepted httpapi.Accepted
		err = json.NewDecoder(resp.Body).Decode(&accepted)
		resp.Body.Close()
		if err != nil {
			fail("execute run: decode: %v", err)
		}
		fmt.Printf("run %s accepted: %d steps\n", accepted.ID, accepted.Steps)
		executeWait(r, *server, accepted.ID, *poll)
	case "status":
		if *id == "" {
			fail("execute status: -id is required")
		}
		executeRender(executeFetch(r, *server, *id))
	default:
		fail("unknown execute subcommand %q (want run or status)", verb)
	}
}

// executeFetch polls GET /execute/{id} once.
func executeFetch(r *retrier, server, id string) httpapi.ExecuteStatus {
	resp := r.do("execute status", func() (*http.Response, error) {
		return http.Get(server + "/execute/" + id)
	})
	if resp.StatusCode != http.StatusOK {
		fail("execute status (%d): %s", resp.StatusCode, readAPIError(resp))
	}
	var view httpapi.ExecuteStatus
	err := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		fail("execute status: decode: %v", err)
	}
	return view
}

// executeWait polls until the run finishes, then renders it.
func executeWait(r *retrier, server, id string, poll time.Duration) {
	last := ""
	for {
		view := executeFetch(r, server, id)
		if view.Finished {
			executeRender(view)
			return
		}
		if view.Status != nil {
			line := fmt.Sprintf("  %s: %d/%d steps verified...",
				view.Status.State, countState(view, "verified"), len(view.Status.Steps))
			if line != last {
				fmt.Println(line)
				last = line
			}
		}
		time.Sleep(poll)
	}
}

func countState(view httpapi.ExecuteStatus, state string) int {
	n := 0
	for _, st := range view.Status.Steps {
		if st.State == state {
			n++
		}
	}
	return n
}

// executeRender prints the run and exits non-zero on halt or failure.
func executeRender(view httpapi.ExecuteStatus) {
	if view.Status == nil {
		fail("run %s: no status yet", view.ID)
	}
	st := view.Status
	fmt.Printf("run %s: %s (%d steps, %d retries, %d samples, %d lost, %d below floor)\n",
		view.ID, st.State, len(st.Steps), st.Retries, st.Samples, st.SamplesLost, st.SamplesBelowFloor)
	if st.Resumed {
		fmt.Println("  resumed from journal checkpoint")
	}
	fmt.Printf("\n%-5s %-10s %-12s %8s %10s %10s  %s\n",
		"step", "kind", "state", "attempts", "utility", "floor", "note")
	for _, s := range st.Steps {
		u, f := "", ""
		if s.Utility != 0 || s.Floor != 0 {
			u = fmt.Sprintf("%10.1f", s.Utility)
			f = fmt.Sprintf("%10.1f", s.Floor)
		}
		fmt.Printf("%-5d %-10s %-12s %8d %10s %10s  %s\n",
			s.Index, s.Kind, s.State, s.Attempts, u, f, s.Error)
	}
	if view.Error != "" {
		fail("run %s failed: %s", view.ID, view.Error)
	}
	if st.Halted {
		rb := "rollback NOT fully applied"
		if st.RolledBack {
			rb = "rollback fully applied"
		}
		fail("run halted at step %d: %s (%s)", st.HaltStep, st.HaltReason, rb)
	}
	fmt.Printf("\nrun completes: final utility %.1f against floor %.1f\n", st.FinalUtility, st.FinalFloor)
}
