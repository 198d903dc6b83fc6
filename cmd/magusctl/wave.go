// The wave subcommand: plan a whole upgrade season against a running
// magusd. `plan` submits the season (market, calendar constraints,
// optional replay drill) and polls until the scheduler finishes,
// rendering each wave's sectors, semantics and exact f(C_after);
// `status` re-polls an already-submitted season by ID.
//
//	magusctl wave plan   [-server http://localhost:8080] [-class suburban] [-seed 1]
//	                     [-crews 4] [-max-waves 0] [-blackout 0,2] [-overlap 0.15]
//	                     [-replay] [-faults "sector-down@2:17"] [-halt-below 3]
//	magusctl wave status -id <id> [-server ...]
//
// Exits 0 only when the season completes without a halt; a halted
// season (floor breach during replay) prints the rollback summary and
// exits 2, matching the scheduler's stop-and-unwind contract.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"magus/internal/campaign"
)

// waveView is the subset of GET /waves/{id} the client renders.
type waveView struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Finished  bool   `json:"finished"`
	Cancelled bool   `json:"cancelled"`
	Error     string `json:"error"`
	Season    *struct {
		Sectors     []int `json:"sectors"`
		Constraints struct {
			CrewsPerWave int `json:"crews_per_wave"`
			MaxWaves     int `json:"max_waves"`
		} `json:"constraints"`
		Method            string  `json:"method"`
		Objective         string  `json:"objective"`
		UtilityBefore     float64 `json:"utility_before"`
		ConflictEdges     int     `json:"conflict_edges"`
		MaxConflictDegree int     `json:"max_conflict_degree"`
		MinWaveUtility    float64 `json:"min_wave_utility"`
		MeanWaveUtility   float64 `json:"mean_wave_utility"`
		TotalHandovers    float64 `json:"total_handovers"`
		Halted            bool    `json:"halted"`
		HaltWave          int     `json:"halt_wave"`
		HaltReason        string  `json:"halt_reason"`
		Waves             []struct {
			Wave         int     `json:"wave"`
			Slot         int     `json:"slot"`
			Sectors      []int   `json:"sectors"`
			Semantics    string  `json:"semantics"`
			UtilityAfter float64 `json:"utility_after"`
			Recovery     float64 `json:"recovery"`
			Handovers    float64 `json:"handovers"`
			Halted       bool    `json:"halted"`
			Cancelled    bool    `json:"cancelled"`
		} `json:"waves"`
		Rollback *struct {
			Title string `json:"title"`
			Steps []struct {
				Index int `json:"index"`
			} `json:"steps"`
		} `json:"rollback"`
	} `json:"season"`
}

func runWave(args []string) {
	if len(args) < 1 {
		fail("usage: magusctl wave <plan|status> [flags]")
	}
	verb := args[0]
	fs := flag.NewFlagSet("magusctl wave "+verb, flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "magusd base URL")
	poll := fs.Duration("poll", 500*time.Millisecond, "status poll interval")
	retries := fs.Int("retries", 3, "attempts per request when the server is draining or unreachable")
	retryBackoff := fs.Duration("retry-backoff", 500*time.Millisecond, "initial retry delay (doubles per attempt, jittered)")

	// plan flags
	classFlag := fs.String("class", "suburban", "area class: rural, suburban, urban")
	seed := fs.Int64("seed", 1, "market seed")
	method := fs.String("method", "joint", "per-wave tuning method: power, tilt, joint, naive, anneal")
	utilFlag := fs.String("utility", "performance", "objective: performance, coverage")
	workers := fs.Int("workers", 0, "per-wave in-search scoring parallelism (0 = server default)")
	annealSeed := fs.Int64("anneal-seed", 0, "scheduler seed; equal seeds reproduce the season bit-identically (0 = default)")
	jobTimeout := fs.Duration("timeout", 0, "season deadline (0 uses the server default)")
	crews := fs.Int("crews", 0, "field crews per wave = max sectors darkened together (0 = default)")
	maxWaves := fs.Int("max-waves", 0, "calendar length in wave slots (0 sizes automatically)")
	blackout := fs.String("blackout", "", "comma-separated blackout slots, e.g. 0,2")
	overlap := fs.Float64("overlap", 0, "coverage overlap fraction above which sectors may not share a wave (0 = default)")
	margin := fs.Float64("margin", 0, "conflict-graph coverage margin in dB (0 = default)")
	annealIters := fs.Int("anneal-iters", 0, "wave-assignment anneal iterations (0 = default)")
	rolling := fs.Float64("rolling-recovery", 0, "recovery ratio at or above which a wave is rolling (0 = default)")
	replay := fs.Bool("replay", false, "replay each wave's runbook through the window simulator before committing")
	replayTicks := fs.Int("replay-ticks", 0, "replay window length (0 = simulator default)")
	faults := fs.String("faults", "", `fault script injected into every replay, e.g. "sector-down@2:17"`)
	haltBelow := fs.Int("halt-below", 0, "consecutive below-floor replay ticks that halt the season (0 = default)")

	// status flags
	id := fs.String("id", "", "season ID to poll (required for status)")
	_ = fs.Parse(args[1:])
	r := newRetrier(*retries, *retryBackoff)

	switch verb {
	case "plan":
		spec := campaign.WaveSpec{
			CrewsPerWave:     *crews,
			MaxWaves:         *maxWaves,
			OverlapThreshold: *overlap,
			MarginDB:         *margin,
			AnnealIters:      *annealIters,
			RollingRecovery:  *rolling,
			Replay:           *replay,
			ReplayTicks:      *replayTicks,
			Faults:           *faults,
			HaltBelowTicks:   *haltBelow,
		}
		if *blackout != "" {
			for _, s := range strings.Split(*blackout, ",") {
				slot, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					fail("bad blackout slot %q", s)
				}
				spec.Blackout = append(spec.Blackout, slot)
			}
		}
		body, err := json.Marshal(map[string]any{
			"class": *classFlag, "seed": *seed, "method": *method, "utility": *utilFlag,
			"workers": *workers, "anneal_seed": *annealSeed,
			"timeout_ms": int64(*jobTimeout / time.Millisecond), "wave": spec,
		})
		if err != nil {
			fail("encode: %v", err)
		}
		resp := r.do("wave plan", func() (*http.Response, error) {
			return http.Post(*server+"/waves", "application/json", bytes.NewReader(body))
		})
		if resp.StatusCode != http.StatusAccepted {
			fail("wave plan rejected (%d): %s", resp.StatusCode, readAPIError(resp))
		}
		var accepted struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&accepted)
		resp.Body.Close()
		if err != nil {
			fail("wave plan: decode: %v", err)
		}
		fmt.Printf("season %s accepted\n", accepted.ID)
		waveWait(r, *server, accepted.ID, *poll)
	case "status":
		if *id == "" {
			fail("wave status: -id is required")
		}
		view := waveFetch(r, *server, *id)
		waveRender(view)
	default:
		fail("unknown wave subcommand %q (want plan or status)", verb)
	}
}

// waveFetch polls GET /waves/{id} once.
func waveFetch(r *retrier, server, id string) waveView {
	resp := r.do("wave status", func() (*http.Response, error) {
		return http.Get(server + "/waves/" + id)
	})
	if resp.StatusCode != http.StatusOK {
		fail("wave status (%d): %s", resp.StatusCode, readAPIError(resp))
	}
	var view waveView
	err := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		fail("wave status: decode: %v", err)
	}
	return view
}

// waveWait polls until the season's campaign finishes, then renders it.
func waveWait(r *retrier, server, id string, poll time.Duration) {
	for {
		view := waveFetch(r, server, id)
		if view.Finished {
			waveRender(view)
			return
		}
		fmt.Printf("  state %s...\n", view.State)
		time.Sleep(poll)
	}
}

// waveRender prints the season and exits non-zero on failure or halt.
func waveRender(view waveView) {
	if view.Error != "" {
		fail("season %s failed: %s", view.ID, view.Error)
	}
	if view.Season == nil {
		fmt.Printf("season %s: state %s (no result yet)\n", view.ID, view.State)
		if view.Cancelled {
			fail("season %s was cancelled", view.ID)
		}
		return
	}
	se := view.Season
	fmt.Printf("season %s: %d sectors in %d waves (calendar %d slots, %d crews/wave)\n",
		view.ID, len(se.Sectors), len(se.Waves), se.Constraints.MaxWaves, se.Constraints.CrewsPerWave)
	fmt.Printf("  conflict graph: %d edges, max degree %d\n", se.ConflictEdges, se.MaxConflictDegree)
	fmt.Printf("  objective %s via %s: f(C_before) %.1f, season min f(C_after) %.1f (mean %.1f), %.0f handovers\n",
		se.Objective, se.Method, se.UtilityBefore, se.MinWaveUtility, se.MeanWaveUtility, se.TotalHandovers)
	fmt.Printf("\n%-5s %-5s %-10s %10s %9s %9s  %s\n",
		"wave", "slot", "state", "f(after)", "recovery", "handover", "sectors")
	for _, w := range se.Waves {
		state := w.Semantics
		switch {
		case w.Cancelled:
			state = "CANCELLED"
		case w.Halted:
			state = "HALTED"
		}
		after, rec, ho := "", "", ""
		if !w.Cancelled {
			after = fmt.Sprintf("%10.1f", w.UtilityAfter)
			rec = fmt.Sprintf("%8.1f%%", 100*w.Recovery)
			ho = fmt.Sprintf("%9.0f", w.Handovers)
		}
		fmt.Printf("%-5d %-5d %-10s %10s %9s %9s  %v\n",
			w.Wave, w.Slot, state, after, rec, ho, w.Sectors)
	}
	if se.Halted {
		steps := 0
		if se.Rollback != nil {
			steps = len(se.Rollback.Steps)
		}
		fail("season halted at wave %d: %s (rollback runbook: %d steps)",
			se.HaltWave, se.HaltReason, steps)
	}
	fmt.Println("\nseason completes without a halt")
}
