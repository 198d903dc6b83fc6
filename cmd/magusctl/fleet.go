// The fleet subcommand: operate a magusd fleet through its
// coordinator. `status` renders the fleet-wide aggregation (members,
// load, engine-cache counters, placements, evictions); `drain` asks the
// coordinator to stop placing work on a node; `evict` force-removes a
// node and re-places its in-flight jobs immediately.
//
//	magusctl fleet status [-server http://coord:8080]
//	magusctl fleet drain  -node n-1a2b3c4d [-server ...]
//	magusctl fleet evict  -node n-1a2b3c4d [-server ...]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"magus/internal/fleet"
)

func runFleet(args []string) {
	if len(args) < 1 {
		fail("usage: magusctl fleet <status|drain|evict> [flags]")
	}
	verb := args[0]
	fs := flag.NewFlagSet("magusctl fleet "+verb, flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "fleet coordinator base URL")
	node := fs.String("node", "", "target worker node id (required for drain and evict)")
	retries := fs.Int("retries", 3, "attempts per request when the coordinator is draining or unreachable")
	retryBackoff := fs.Duration("retry-backoff", 500*time.Millisecond, "initial retry delay (doubles per attempt, jittered; a Retry-After hint overrides)")
	_ = fs.Parse(args[1:])
	r := newRetrier(*retries, *retryBackoff)

	switch verb {
	case "status":
		fleetStatus(r, *server)
	case "drain", "evict":
		if *node == "" {
			fail("fleet %s: -node is required", verb)
		}
		fleetNodeOp(r, *server, verb, *node)
	default:
		fail("unknown fleet subcommand %q (want status, drain or evict)", verb)
	}
}

func fleetStatus(r *retrier, server string) {
	resp := r.do("fleet status", func() (*http.Response, error) {
		return http.Get(server + "/fleet/status")
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("fleet status: %s (is %s a coordinator?)", resp.Status, server)
	}
	var st fleet.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fail("fleet status: decode: %v", err)
	}

	fmt.Printf("coordinator %s, up %s\n", st.Coordinator, time.Duration(st.UptimeS*float64(time.Second)).Round(time.Second))
	fmt.Printf("campaigns: %d total, %d finished, %d cancelled\n",
		st.Campaigns["total"], st.Campaigns["finished"], st.Campaigns["cancelled"])
	total := st.CacheTotal
	if lookups := total.Hits + total.Misses; lookups > 0 {
		fmt.Printf("engine cache fleet-wide: %d builds, %.0f%% hit rate\n",
			total.Builds, 100*float64(total.Hits)/float64(lookups))
	}

	fmt.Printf("\n%-20s %-7s %-9s %5s %6s %8s %8s  %s\n",
		"node", "state", "last-seen", "cap", "queued", "inflight", "uptime", "markets")
	for _, m := range st.Members {
		state := "alive"
		if m.Draining {
			state = "drain"
		}
		if !m.Alive {
			state = "stale"
		}
		fmt.Printf("%-20s %-7s %8.0fms %5d %6d %8d %7.0fs  %s\n",
			m.NodeID, state, m.LastSeenMS, m.Capacity, m.Queued, m.InFlight,
			m.UptimeS, strings.Join(m.Markets, ","))
	}

	if len(st.Placements) > 0 {
		markets := make([]string, 0, len(st.Placements))
		for m := range st.Placements {
			markets = append(markets, m)
		}
		sort.Strings(markets)
		fmt.Printf("\n%-16s %-20s %s\n", "market", "owner", "epoch")
		for _, m := range markets {
			p := st.Placements[m]
			fmt.Printf("%-16s %-20s %5d\n", m, p.Node, p.Epoch)
		}
	}

	for _, ev := range st.Evictions {
		fmt.Printf("\nevicted %s at %s (%s), %d jobs re-placed",
			ev.Node, ev.Time.Format(time.TimeOnly), ev.Reason, ev.ReplacedJobs)
	}
	if len(st.Evictions) > 0 {
		fmt.Println()
	}
}

func fleetNodeOp(r *retrier, server, verb, node string) {
	body, err := json.Marshal(fleet.NodeRequest{NodeID: node})
	if err != nil {
		fail("encode: %v", err)
	}
	resp := r.do("fleet "+verb, func() (*http.Response, error) {
		return http.Post(server+"/fleet/"+verb, "application/json", bytes.NewReader(body))
	})
	if resp.StatusCode != http.StatusOK {
		fail("fleet %s %s: %s (%s)", verb, node, resp.Status, readAPIError(resp))
	}
	resp.Body.Close()
	fmt.Printf("fleet %s %s: ok\n", verb, node)
}
