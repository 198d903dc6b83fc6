// Command magusd serves a Magus engine over HTTP: build the market model
// once at startup, then answer planning queries from operations tooling.
//
// Usage:
//
//	magusd [-listen :8080] [-class suburban] [-seed 1] [-workers N]
//	       [-journal campaigns.wal] [-exec-dir runs/] [-drain-timeout 15s]
//	       [-data market.json] [-data-policy repair] [-pprof :6060]
//	       [-coordinator | -join http://coord:8080] [-advertise URL]
//	       [-port-file path] [-mini]
//
// Endpoints (all GET, JSON/GeoJSON):
//
//	/healthz   liveness + node identity + market summary ("draining" during shutdown)
//	/sectors   topology as GeoJSON
//	/coverage  baseline serving map as GeoJSON (?stride=N)
//	/plan      mitigation plan (?scenario=a|b|c&method=power|tilt|joint|naive|anneal)
//	/runbook   executable runbook with rollback (same parameters)
//	/outage    unplanned-outage response (?sector=N)
//
// Asynchronous campaigns (POST /campaigns, GET /campaigns/{id},
// POST /campaigns/{id}/cancel) run batches of planning jobs across
// markets on a worker pool; see magusctl campaign for a client.
//
// Guarded execution (POST /execute, GET /execute/{id}) drives a planned
// runbook through the checkpointed executor: retried pushes, KPI
// verification against the utility floor, auto-rollback on breach.
// Each run journals to its own file under -exec-dir (default
// <journal>.exec), so a run interrupted mid-push leaves an exact
// checkpoint trail behind and a restarted daemon never reuses a dead
// run's journal; see magusctl execute for a client.
//
// Fleet mode shards campaigns across several magusd processes. One
// process runs with -coordinator: it accepts joins, places each market
// on a worker (sticky, epoch-fenced leases), proxies /campaigns across
// the fleet and serves GET /fleet/status. The others run with
// -join <coordinator-url>: they heartbeat load and cache statistics and
// execute the job groups dispatched to them. See magusctl fleet for the
// operator CLI.
//
// Durability: with -journal, every campaign job is journaled to an
// append-only log before it becomes runnable, and jobs left queued or
// in flight by a crash are resubmitted at the next startup. The journal
// also carries a fencing epoch: the daemon claims the next epoch at
// startup, so a superseded process (crashed but still running) cannot
// commit results over its replacement's work. On SIGINT/SIGTERM the
// daemon drains instead of dying: admission stops (503 + Retry-After),
// running jobs get -drain-timeout to finish, whatever remains is
// journaled for the restart to pick up — and a fleet worker hands its
// leases back to the coordinator before exiting.
//
// Degraded data: with -data, the engine plans from an operational
// dataset (per-tilt link-budget matrices, configuration, user density)
// instead of its synthetic link budgets. The dataset passes through the
// sanitizer under -data-policy first; the report is surfaced in
// /healthz and on every plan.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"magus"
	"magus/internal/campaign"
	"magus/internal/experiments"
	"magus/internal/fleet"
	"magus/internal/httpapi"
	"magus/internal/journal"
	"magus/internal/topology"
)

func main() {
	listen := flag.String("listen", ":8080", "address to listen on (use 127.0.0.1:0 with -port-file for a dynamic port)")
	classFlag := flag.String("class", "suburban", "market class: rural, suburban, urban")
	seed := flag.Int64("seed", 1, "market seed")
	workers := flag.Int("workers", 0, "default in-search candidate-scoring parallelism (0 = sequential; per-request ?workers= overrides)")
	campaignWorkers := flag.Int("campaign-workers", 0, "concurrent campaign jobs on this node (0 = GOMAXPROCS)")
	journalPath := flag.String("journal", "", "campaign journal file; enables crash recovery and epoch fencing of campaign jobs (empty disables)")
	execDir := flag.String("exec-dir", "", "directory for per-run executor journals behind /execute (default: <journal>.exec when -journal is set; empty otherwise runs /execute unjournaled)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long running campaign jobs may finish during graceful shutdown")
	dataPath := flag.String("data", "", "operational dataset JSON to plan from (empty: synthetic link budgets)")
	dataPolicy := flag.String("data-policy", "repair", "sanitizer policy for -data: strict, repair, quarantine")
	pprofAddr := flag.String("pprof", "", "also serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	modelCacheDir := flag.String("model-cache", "", "directory for on-disk model snapshots; restarts over a seen market skip the model build (empty disables)")
	coordinator := flag.Bool("coordinator", false, "run as fleet coordinator: shard /campaigns across joined workers instead of running jobs locally")
	joinURL := flag.String("join", "", "coordinator base URL to join as a fleet worker (e.g. http://coord:8080)")
	advertise := flag.String("advertise", "", "base URL this worker advertises to the coordinator (default: derived from the bound listen address)")
	capacity := flag.Int("capacity", 0, "campaign slots advertised to the coordinator (0: the campaign worker-pool size)")
	portFile := flag.String("port-file", "", "write the bound listen address (host:port) to this file once serving")
	mini := flag.Bool("mini", false, "miniature markets: engine builds in milliseconds, for fleet smoke tests and demos")
	flag.Parse()
	if *coordinator && *joinURL != "" {
		log.Fatal("-coordinator and -join are mutually exclusive")
	}
	experiments.SetSearchWorkers(*workers)
	if err := experiments.SetModelCacheDir(*modelCacheDir); err != nil {
		log.Fatalf("model cache: %v", err)
	}

	class, ok := map[string]magus.AreaClass{
		"rural": magus.Rural, "suburban": magus.Suburban, "urban": magus.Urban,
	}[*classFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "magusd: unknown class %q\n", *classFlag)
		os.Exit(2)
	}

	areaSpec := experiments.DefaultAreaSpec
	if *mini {
		areaSpec = experiments.MiniAreaSpec
	}

	log.Printf("building %s market (seed %d)...", class, *seed)
	start := time.Now()
	engine, err := experiments.BuildEngine(*seed, areaSpec(class))
	if err != nil {
		log.Fatalf("build engine: %v", err)
	}
	log.Printf("market ready in %.1fs: %d sites, %d sectors, %.0f users",
		time.Since(start).Seconds(), len(engine.Net.Sites),
		engine.Net.NumSectors(), engine.Model.TotalUE())

	if *dataPath != "" {
		policy, err := magus.ParseSanitizePolicy(*dataPolicy)
		if err != nil {
			log.Fatalf("%v", err)
		}
		ds, err := magus.LoadDataset(*dataPath)
		if err != nil {
			log.Fatalf("load dataset: %v", err)
		}
		rep, err := engine.UseDataset(ds, policy)
		if err != nil {
			log.Fatalf("dataset %s rejected: %v", *dataPath, err)
		}
		log.Printf("dataset %s: policy %s, %d defects found, %d repaired, %d sectors quarantined",
			*dataPath, rep.Policy, rep.Found, rep.Repaired, len(rep.Quarantined))
	}

	// Node identity: persisted next to the journal so a restarted worker
	// rejoins the fleet under the same name; without a journal the
	// identity is fresh per process.
	nodeID := ""
	if *journalPath != "" {
		nodeID, err = fleet.LoadOrCreateNodeID(*journalPath + ".nodeid")
		if err != nil {
			log.Fatalf("node id: %v", err)
		}
	} else {
		nodeID = fleet.NewNodeID()
	}
	log.Printf("node id %s", nodeID)

	// Replay the journal before opening it for appending: jobs the last
	// process left unfinished are resubmitted through the fresh
	// orchestrator below. The epoch claim fences any superseded process
	// still holding the journal: its pending commits are rejected.
	var pending []campaign.PendingJob
	var jr *journal.Journal
	var epoch int64
	if *journalPath != "" {
		if !*coordinator {
			pending, err = campaign.ReplayJournal(*journalPath)
			if err != nil {
				log.Fatalf("journal replay: %v", err)
			}
		}
		jr, err = journal.Open(*journalPath, journal.Options{})
		if err != nil {
			log.Fatalf("journal: %v", err)
		}
		if !*coordinator {
			epoch, err = jr.ClaimEpoch()
			if err != nil {
				log.Fatalf("journal epoch claim: %v", err)
			}
			log.Printf("journal epoch %d claimed", epoch)
		}
	}
	orchJournal := jr
	if *coordinator {
		orchJournal = nil // the coordinator's journal records leases, not local jobs
	}
	orch, err := campaign.New(campaign.Config{
		Build: func(_ context.Context, class topology.AreaClass, seed int64) (*magus.Engine, error) {
			return experiments.BuildEngine(seed, areaSpec(class))
		},
		Cache:   experiments.SharedEngineCache(),
		Workers: *campaignWorkers,
		Journal: orchJournal,
		Epoch:   epoch,
	})
	if err != nil {
		log.Fatalf("orchestrator: %v", err)
	}
	if len(pending) > 0 {
		recovered, err := orch.Resubmit(pending)
		if err != nil {
			log.Fatalf("resubmit journaled jobs: %v", err)
		}
		log.Printf("recovered %d journaled jobs into %d campaigns", len(pending), len(recovered))
	}

	if *pprofAddr != "" {
		// A separate listener keeps the profiler off the public API port.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	var coord *fleet.Coordinator
	if *coordinator {
		coord = fleet.New(fleet.Config{NodeID: nodeID, Journal: jr, Logf: log.Printf})
		if jr != nil {
			// A restarted coordinator must not hand out epochs its
			// predecessor already granted; replay the lease trail first.
			n, err := coord.RestoreLeases(*journalPath)
			if err != nil {
				log.Fatalf("fleet lease restore: %v", err)
			}
			if n > 0 {
				log.Printf("fleet: restored %d market leases from journal", n)
			}
		}
		log.Print("fleet coordinator mode: waiting for workers to join")
	}
	if *execDir == "" && *journalPath != "" {
		*execDir = *journalPath + ".exec"
	}
	api := httpapi.New(engine, httpapi.Options{Orchestrator: orch, NodeID: nodeID, Coordinator: coord, ExecDir: *execDir})
	srv := &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		// Joint searches on large markets take tens of seconds; the write
		// timeout must outlast the slowest synchronous plan.
		WriteTimeout: 2 * time.Minute,
	}

	// Bind before anything advertises the address: -port-file readers and
	// the fleet coordinator both need a port that actually accepts.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	boundAddr := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(boundAddr+"\n"), 0o644); err != nil {
			log.Fatalf("port file: %v", err)
		}
	}

	var agent *fleet.Worker
	if *joinURL != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + advertiseHostPort(boundAddr)
		}
		cap := *capacity
		if cap == 0 {
			cap = orch.Metrics().Workers
		}
		agent, err = fleet.StartWorker(fleet.WorkerConfig{
			Coordinator:  *joinURL,
			NodeID:       nodeID,
			AdvertiseURL: adv,
			Capacity:     cap,
			Orch:         orch,
			Logf:         log.Printf,
		})
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		log.Printf("fleet worker mode: advertising %s to %s (capacity %d)", adv, *joinURL, cap)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("draining: admission stopped, running jobs get %s", *drainTimeout)
		api.BeginDrain()
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		report := orch.Drain(dctx)
		cancel()
		log.Printf("drain: %d jobs finished, %d journaled for restart", report.Completed, report.Requeued)
		if agent != nil {
			// Hand leases back while the status endpoints still answer, so
			// the coordinator's final sweep collects everything we finished.
			lctx, lcancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := agent.Leave(lctx); err != nil {
				log.Printf("fleet leave: %v", err)
			} else {
				log.Print("fleet: leases handed back")
			}
			lcancel()
			agent.Close()
		}
		if coord != nil {
			coord.Close()
		}
		api.Close()
		if jr != nil {
			if err := jr.Close(); err != nil {
				log.Printf("journal close: %v", err)
			}
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("listening on %s", boundAddr)
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
	<-drained
	log.Print("bye")
}

// advertiseHostPort rewrites a bound listen address into one another
// process can dial: wildcard hosts become loopback.
func advertiseHostPort(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}
