// The campaign subcommand: submit a batch of planning jobs to a running
// magusd and poll the status endpoint until every job reaches a terminal
// state. Exits 0 only when all jobs are done.
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

	"magus/internal/httpapi"
)

func runCampaign(args []string) {
	fs := flag.NewFlagSet("magusctl campaign", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "magusd base URL")
	classes := fs.String("classes", "suburban", "comma-separated classes: rural,suburban,urban")
	scenarios := fs.String("scenarios", "a", "comma-separated scenarios: a,b,c")
	methods := fs.String("methods", "joint", "comma-separated methods: power,tilt,joint,naive,anneal")
	seeds := fs.String("seeds", "1", "comma-separated market seeds")
	utilFlag := fs.String("utility", "performance", "objective: performance, coverage")
	jobTimeout := fs.Duration("timeout", 0, "per-job deadline (0 uses the server default)")
	workers := fs.Int("workers", 0, "per-job in-search scoring parallelism (0 = server default)")
	poll := fs.Duration("poll", 500*time.Millisecond, "status poll interval")
	retries := fs.Int("retries", 3, "attempts per request when the server is draining or unreachable")
	retryBackoff := fs.Duration("retry-backoff", 500*time.Millisecond, "initial retry delay (doubles per attempt, jittered)")
	_ = fs.Parse(args)
	r := newRetrier(*retries, *retryBackoff)

	var req httpapi.CampaignRequest
	for _, class := range strings.Split(*classes, ",") {
		for _, seedStr := range strings.Split(*seeds, ",") {
			seed, err := strconv.ParseInt(strings.TrimSpace(seedStr), 10, 64)
			if err != nil {
				fail("bad seed %q", seedStr)
			}
			for _, sc := range strings.Split(*scenarios, ",") {
				for _, m := range strings.Split(*methods, ",") {
					req.Jobs = append(req.Jobs, httpapi.CampaignJobRequest{
						Class:     strings.TrimSpace(class),
						Seed:      seed,
						Scenario:  strings.TrimSpace(sc),
						Method:    strings.TrimSpace(m),
						Utility:   *utilFlag,
						TimeoutMS: int64(*jobTimeout / time.Millisecond),
						Workers:   *workers,
					})
				}
			}
		}
	}

	body, err := json.Marshal(req)
	if err != nil {
		fail("encode: %v", err)
	}
	resp := r.do("submit", func() (*http.Response, error) {
		return http.Post(*server+"/campaigns", "application/json", bytes.NewReader(body))
	})
	if resp.StatusCode != http.StatusAccepted {
		fail("submit rejected (%d): %s", resp.StatusCode, readAPIError(resp))
	}
	var accepted httpapi.Accepted
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil {
		fail("submit: decode: %v", err)
	}
	fmt.Printf("campaign %s accepted: %d jobs\n", accepted.ID, accepted.Jobs)

	var view httpapi.CampaignStatus
	for {
		time.Sleep(*poll)
		resp := r.do("poll", func() (*http.Response, error) {
			return http.Get(*server + "/campaigns/" + accepted.ID)
		})
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			fail("poll: decode: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			fail("poll: status %d", resp.StatusCode)
		}
		c := view.Campaign.Counts
		fmt.Printf("  queued %d  running %d  done %d  failed %d  cancelled %d\n",
			c["queued"], c["running"], c["done"], c["failed"], c["cancelled"])
		if view.Campaign.Finished {
			break
		}
	}

	fmt.Printf("\n%-4s %-9s %-5s %-9s %-13s %-10s %9s %9s\n",
		"job", "class", "seed", "scenario", "method", "state", "recovery", "ms")
	for _, j := range view.Campaign.Jobs {
		recovery := ""
		if j.Result != nil {
			recovery = fmt.Sprintf("%8.1f%%", 100*j.Result.Recovery)
		}
		fmt.Printf("%-4d %-9s %-5d %-9s %-13s %-10s %9s %9.0f\n",
			j.ID, j.Class, j.Seed, j.Scenario, j.Method, j.State, recovery, j.DurationMS)
		if j.Error != "" {
			fmt.Printf("     error: %s\n", j.Error)
		}
	}
	fmt.Printf("\nmean recovery %.1f%%, job latency p50 %.0f ms / p95 %.0f ms\n",
		100*view.Campaign.MeanRecovery, view.Campaign.P50MS, view.Campaign.P95MS)
	if c := view.Campaign.Counts; c["failed"] > 0 || c["cancelled"] > 0 {
		fail("%d failed, %d cancelled", c["failed"], c["cancelled"])
	}
}
