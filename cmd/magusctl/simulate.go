// The simulate subcommand: ask a running magusd to execute a planned
// runbook through the upgrade-window simulator and render the resulting
// disruption time series. Exits 0 only when the window ends at or above
// the f(C_after) floor.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// simulateView is the subset of the /simulate response the client
// renders; summary mirrors simwindow.Summary's wire form.
type simulateView struct {
	Scenario string `json:"scenario"`
	Method   string `json:"method"`
	Steps    int    `json:"steps"`
	Summary  struct {
		Ticks            int     `json:"ticks"`
		FinalUtility     float64 `json:"final_utility"`
		FinalFloor       float64 `json:"final_floor"`
		EndsAboveFloor   bool    `json:"ends_above_floor"`
		MinFloorGap      float64 `json:"min_floor_gap"`
		TicksBelowFloor  int     `json:"ticks_below_floor"`
		MaxTickHandovers float64 `json:"max_tick_handovers"`
		TotalHandovers   float64 `json:"total_handovers"`
		PushesApplied    int     `json:"pushes_applied"`
		PushesDropped    int     `json:"pushes_dropped"`
		PushesDelayed    int     `json:"pushes_delayed"`
		FaultsInjected   int     `json:"faults_injected"`
		Replans          int     `json:"replans"`
		ReplanPushes     int     `json:"replan_pushes"`
	} `json:"summary"`
	Series []struct {
		Tick            int      `json:"tick"`
		HourOfDay       float64  `json:"hour_of_day"`
		LoadFactor      float64  `json:"load_factor"`
		Utility         float64  `json:"utility"`
		FloorUtility    float64  `json:"floor_utility"`
		Handovers       float64  `json:"handovers"`
		UsersBelowFloor float64  `json:"users_below_floor"`
		PushedChanges   int      `json:"pushed_changes"`
		Events          []string `json:"events"`
	} `json:"series"`
}

func runSimulate(args []string) {
	fs := flag.NewFlagSet("magusctl simulate", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "magusd base URL")
	scenario := fs.String("scenario", "a", "upgrade scenario: a, b, c")
	method := fs.String("method", "joint", "tuning method: power, tilt, joint, naive, anneal")
	utilFlag := fs.String("utility", "", "objective: performance, coverage (server default when empty)")
	workers := fs.Int("workers", 0, "in-search scoring parallelism (0 = score on one goroutine)")
	ticks := fs.Int("ticks", 0, "window length in ticks (0 = one per push plus settle)")
	simSeed := fs.Int64("sim-seed", 0, "simulator seed (load noise)")
	faults := fs.String("faults", "", `fault script, e.g. "push-fail@2,sector-down@20:17,surge@10+8:5:x1.8"`)
	diurnal := fs.Bool("diurnal", false, "evolve load along the default diurnal profile")
	noise := fs.Float64("noise", 0, "per-tick lognormal load jitter sigma")
	startHour := fs.Float64("start-hour", -1, "local hour at tick 0 (default 02:00)")
	replan := fs.Bool("replan", false, "enable the search-based replanner on floor breaches")
	series := fs.Bool("series", false, "print the per-tick time series")
	retries := fs.Int("retries", 3, "attempts when the server is draining or unreachable")
	retryBackoff := fs.Duration("retry-backoff", 500*time.Millisecond, "initial retry delay (doubles per attempt, jittered)")
	_ = fs.Parse(args)

	q := url.Values{}
	q.Set("scenario", *scenario)
	q.Set("method", *method)
	q.Set("series", "1") // always fetched: the tick count drives the sparkline
	if *utilFlag != "" {
		q.Set("utility", *utilFlag)
	}
	if *workers > 0 {
		q.Set("workers", strconv.Itoa(*workers))
	}
	if *ticks > 0 {
		q.Set("ticks", strconv.Itoa(*ticks))
	}
	if *simSeed != 0 {
		q.Set("sim_seed", strconv.FormatInt(*simSeed, 10))
	}
	if *faults != "" {
		q.Set("faults", *faults)
	}
	if *diurnal {
		q.Set("diurnal", "1")
	}
	if *noise > 0 {
		q.Set("noise", strconv.FormatFloat(*noise, 'g', -1, 64))
	}
	if *startHour >= 0 {
		q.Set("start_hour", strconv.FormatFloat(*startHour, 'g', -1, 64))
	}
	if *replan {
		q.Set("replan", "1")
	}

	resp := newRetrier(*retries, *retryBackoff).do("simulate", func() (*http.Response, error) {
		return http.Get(*server + "/simulate?" + q.Encode())
	})
	if resp.StatusCode != http.StatusOK {
		fail("simulate rejected (%d): %s", resp.StatusCode, readAPIError(resp))
	}
	var view simulateView
	err := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		fail("simulate: decode: %v", err)
	}

	s := view.Summary
	fmt.Printf("simulated %d-tick window: scenario %s, method %s, %d runbook steps\n",
		s.Ticks, view.Scenario, view.Method, view.Steps)
	fmt.Printf("  pushes: %d applied, %d dropped, %d delayed; faults injected: %d\n",
		s.PushesApplied, s.PushesDropped, s.PushesDelayed, s.FaultsInjected)
	if s.Replans > 0 {
		fmt.Printf("  replans: %d (%d corrective pushes spliced)\n", s.Replans, s.ReplanPushes)
	}
	fmt.Printf("  handovers: %.0f total, max %.0f in one tick\n",
		s.TotalHandovers, s.MaxTickHandovers)
	fmt.Printf("  utility: final %.1f vs floor %.1f (min gap %+.1f, %d ticks below)\n",
		s.FinalUtility, s.FinalFloor, s.MinFloorGap, s.TicksBelowFloor)

	if *series {
		fmt.Printf("\n%-5s %-6s %-6s %10s %10s %9s %7s %s\n",
			"tick", "hour", "load", "utility", "floor", "handover", "pushed", "events")
		for _, tk := range view.Series {
			events := ""
			for i, e := range tk.Events {
				if i > 0 {
					events += "; "
				}
				events += e
			}
			fmt.Printf("%-5d %-6.2f %-6.3f %10.1f %10.1f %9.0f %7d %s\n",
				tk.Tick, tk.HourOfDay, tk.LoadFactor, tk.Utility, tk.FloorUtility,
				tk.Handovers, tk.PushedChanges, events)
		}
	}

	if !s.EndsAboveFloor {
		fail("window ends %.1f below the f(C_after) floor", s.FinalFloor-s.FinalUtility)
	}
	fmt.Println("window ends at or above the f(C_after) floor")
}
