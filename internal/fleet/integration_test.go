package fleet_test

// In-process fleet integration: one coordinator and two workers, wired
// through real HTTP servers (httptest), exercising sticky placement,
// heartbeat eviction, epoch-fenced re-placement and fleet-wide status
// aggregation — the multi-node failure drill from the acceptance
// criteria, fast enough for -race.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/fleet"
	"magus/internal/httpapi"
	"magus/internal/journal"
	"magus/internal/topology"
)

// miniSetup mirrors the httpapi test fixture: miniature markets so
// engine builds take milliseconds.
func miniSetup(class topology.AreaClass, seed int64) core.SetupConfig {
	cfg := core.SetupConfig{Seed: seed, Class: class, EqualizeSteps: 40}
	switch class {
	case topology.Rural:
		cfg.RegionSpanM, cfg.CellSizeM = 12000, 600
	case topology.Urban:
		cfg.RegionSpanM, cfg.CellSizeM = 2400, 150
	default:
		cfg.RegionSpanM, cfg.CellSizeM = 5400, 300
	}
	return cfg
}

// miniOrch builds an orchestrator over miniature markets. Every engine
// build first waits for gate to close (nil never waits) or for its job's
// context to end.
func miniOrch(t *testing.T, workers int, gate <-chan struct{}) *campaign.Orchestrator {
	t.Helper()
	cache := campaign.NewEngineCache(8)
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		cfg := miniSetup(class, seed)
		key := campaign.EngineKey{Class: class, Seed: seed, SpecHash: campaign.SpecHash(cfg)}
		return cache.GetOrBuild(key, func() (*core.Engine, error) {
			return core.NewEngine(cfg)
		})
	}
	orch, err := campaign.New(campaign.Config{Build: build, Cache: cache, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return orch
}

// testWorker is one in-process fleet worker: orchestrator, HTTP server,
// fleet agent.
type testWorker struct {
	id    string
	orch  *campaign.Orchestrator
	srv   *httptest.Server
	agent *fleet.Worker
}

// kill simulates SIGKILL: the HTTP server stops answering and the
// heartbeats stop, with no leave. The orchestrator is shut down too
// (the process is gone).
func (w *testWorker) kill() {
	w.agent.Close()
	w.srv.CloseClientConnections()
	w.srv.Close()
	w.orch.Close()
}

func startTestWorker(t *testing.T, engine *core.Engine, id, coordURL string, gate <-chan struct{}) *testWorker {
	t.Helper()
	orch := miniOrch(t, 2, gate)
	s := httpapi.New(engine, httpapi.Options{Orchestrator: orch, NodeID: id})
	srv := httptest.NewServer(s)
	agent, err := fleet.StartWorker(fleet.WorkerConfig{
		Coordinator:  coordURL,
		NodeID:       id,
		AdvertiseURL: srv.URL,
		Capacity:     2,
		Interval:     50 * time.Millisecond,
		Orch:         orch,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorker{id: id, orch: orch, srv: srv, agent: agent}
	t.Cleanup(func() {
		agent.Close()
		srv.Close()
		orch.Close()
	})
	return w
}

// testFleet is a 1-coordinator, N-worker in-process cluster.
type testFleet struct {
	coord       *fleet.Coordinator
	coordSrv    *httptest.Server
	journalPath string
	workers     map[string]*testWorker
}

func startTestFleet(t *testing.T, workerIDs ...string) *testFleet {
	t.Helper()
	return startGatedFleet(t, nil, workerIDs...)
}

// startGatedFleet starts a fleet whose workers' engine builds wait for
// gate to close, so no worker can finish a job before the test opens it.
func startGatedFleet(t *testing.T, gate <-chan struct{}, workerIDs ...string) *testFleet {
	t.Helper()
	engine, err := core.NewEngine(miniSetup(topology.Suburban, 1))
	if err != nil {
		t.Fatal(err)
	}
	jpath := t.TempDir() + "/coord.wal"
	j, err := journal.Open(jpath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	coord := fleet.New(fleet.Config{
		NodeID:            "coord",
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  300 * time.Millisecond,
		ReconcileInterval: 20 * time.Millisecond,
		Journal:           j,
		Logf:              t.Logf,
	})
	t.Cleanup(coord.Close)
	s := httpapi.New(engine, httpapi.Options{
		Orchestrator: miniOrch(t, 1, nil), NodeID: "coord", Coordinator: coord,
	})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	tf := &testFleet{coord: coord, coordSrv: srv, journalPath: jpath, workers: map[string]*testWorker{}}
	for _, id := range workerIDs {
		tf.workers[id] = startTestWorker(t, engine, id, srv.URL, gate)
	}
	return tf
}

// waitFor polls cond until it returns true or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func (tf *testFleet) status(t *testing.T) fleet.Status {
	t.Helper()
	resp, err := http.Get(tf.coordSrv.URL + "/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st fleet.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func (tf *testFleet) campaign(t *testing.T, id string) fleet.CampaignView {
	t.Helper()
	resp, err := http.Get(tf.coordSrv.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Campaign fleet.CampaignView `json:"campaign"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Campaign
}

func (tf *testFleet) submit(t *testing.T, body string) string {
	t.Helper()
	resp, err := http.Post(tf.coordSrv.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %s", resp.Status)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack.ID
}

func aliveMembers(st fleet.Status) int {
	n := 0
	for _, m := range st.Members {
		if m.Alive {
			n++
		}
	}
	return n
}

// jobsBody builds a /campaigns submission: per market, `per` planning
// jobs with the given method ("naive" is near-instant, "joint" runs a
// real search — long enough to kill a worker mid-campaign).
func jobsBody(per int, method string, markets ...string) string {
	var jobs []string
	for _, m := range markets {
		parts := strings.SplitN(m, "/", 2)
		for i := 0; i < per; i++ {
			jobs = append(jobs, fmt.Sprintf(
				`{"class":%q,"seed":%s,"scenario":"a","method":%q}`, parts[0], parts[1], method))
		}
	}
	return `{"jobs":[` + strings.Join(jobs, ",") + `]}`
}

// TestFleetShardingAndAggregation: two live workers, a multi-market
// campaign; every market's jobs stay on one worker (sticky placement),
// the campaign finishes, and /fleet/status aggregates both workers'
// healthz and engine-cache counters.
func TestFleetShardingAndAggregation(t *testing.T) {
	tf := startTestFleet(t, "w1", "w2")
	waitFor(t, 5*time.Second, "both workers to join", func() bool {
		return aliveMembers(tf.status(t)) == 2
	})

	id := tf.submit(t, jobsBody(3, "naive", "suburban/11", "suburban/12", "urban/13", "urban/14"))
	waitFor(t, 60*time.Second, "campaign to finish", func() bool {
		return tf.campaign(t, id).Finished
	})

	view := tf.campaign(t, id)
	byMarket := map[string]map[string]bool{}
	for _, j := range view.Jobs {
		if j.State != "done" || j.Result == nil {
			t.Fatalf("job %d: state %q (want done with result)", j.ID, j.State)
		}
		if j.Epoch != 1 {
			t.Fatalf("job %d: epoch %d (no failover happened; want 1)", j.ID, j.Epoch)
		}
		if byMarket[j.Market] == nil {
			byMarket[j.Market] = map[string]bool{}
		}
		byMarket[j.Market][j.Node] = true
	}
	if len(byMarket) != 4 {
		t.Fatalf("markets seen: %d, want 4", len(byMarket))
	}
	for m, nodes := range byMarket {
		if len(nodes) != 1 {
			t.Errorf("market %s ran on %d nodes, want sticky placement on 1", m, len(nodes))
		}
	}
	if view.MeanRecovery <= 0 {
		t.Errorf("mean recovery %v, want > 0", view.MeanRecovery)
	}

	// Aggregation: both workers' heartbeat cache counters roll up, and
	// the live /healthz fan-out carries each worker's node identity.
	waitFor(t, 5*time.Second, "cache stats to aggregate", func() bool {
		return tf.status(t).CacheTotal.Builds > 0
	})
	st := tf.status(t)
	if len(st.Members) != 2 {
		t.Fatalf("members: %d, want 2", len(st.Members))
	}
	for _, m := range st.Members {
		if !m.Alive {
			t.Errorf("member %s not alive", m.NodeID)
		}
		var hz struct {
			NodeID  string  `json:"node_id"`
			UptimeS float64 `json:"uptime_s"`
		}
		if err := json.Unmarshal(m.Healthz, &hz); err != nil {
			t.Fatalf("member %s healthz: %v", m.NodeID, err)
		}
		if hz.NodeID != m.NodeID {
			t.Errorf("member %s healthz reports node_id %q", m.NodeID, hz.NodeID)
		}
		if hz.UptimeS <= 0 {
			t.Errorf("member %s healthz uptime_s = %v", m.NodeID, hz.UptimeS)
		}
	}
	if st.Campaigns["finished"] != 1 {
		t.Errorf("campaigns finished: %d, want 1", st.Campaigns["finished"])
	}
	if len(st.Placements) != 4 {
		t.Errorf("placements: %d, want 4", len(st.Placements))
	}
}

// TestFleetFailover: kill one worker mid-campaign. The coordinator
// evicts it on missed heartbeats, re-places its markets on the survivor
// under a bumped epoch, and the campaign still finishes with every job
// done exactly once. The lease history lands in the coordinator
// journal.
func TestFleetFailover(t *testing.T) {
	// Builds wait until the victim is dead, so the victim cannot finish
	// any market before the kill and some job must be re-placed.
	gate := make(chan struct{})
	tf := startGatedFleet(t, gate, "w1", "w2")
	waitFor(t, 5*time.Second, "both workers to join", func() bool {
		return aliveMembers(tf.status(t)) == 2
	})

	markets := []string{"suburban/21", "suburban/22", "urban/23", "urban/24"}
	id := tf.submit(t, jobsBody(6, "joint", markets...))

	// Wait until every market is placed, then kill a worker that owns at
	// least one of them.
	var victim string
	waitFor(t, 10*time.Second, "all markets placed", func() bool {
		st := tf.status(t)
		if len(st.Placements) < len(markets) {
			return false
		}
		for _, p := range st.Placements {
			if tf.workers[p.Node] != nil {
				victim = p.Node
			}
		}
		return victim != ""
	})
	t.Logf("killing %s", victim)
	tf.workers[victim].kill()
	close(gate)

	waitFor(t, 10*time.Second, "victim eviction", func() bool {
		for _, ev := range tf.status(t).Evictions {
			if ev.Node == victim && ev.Reason == "missed heartbeats" {
				return true
			}
		}
		return false
	})
	waitFor(t, 60*time.Second, "campaign to finish after failover", func() bool {
		return tf.campaign(t, id).Finished
	})

	var survivor string
	for idw := range tf.workers {
		if idw != victim {
			survivor = idw
		}
	}
	// Every job finishes exactly once. Jobs the victim committed before
	// its death stand (they really ran, once); jobs re-placed after the
	// eviction carry a bumped epoch and must have landed on the survivor.
	view := tf.campaign(t, id)
	done, replaced := 0, 0
	for _, j := range view.Jobs {
		if j.State != "done" || j.Result == nil {
			t.Fatalf("job %d (market %s): state %q after failover, want done", j.ID, j.Market, j.State)
		}
		done++
		if j.Epoch > 1 {
			replaced++
			if j.Node != survivor {
				t.Errorf("job %d re-placed to %s, want survivor %s", j.ID, j.Node, survivor)
			}
		}
	}
	if done != len(view.Jobs) || done != 6*len(markets) {
		t.Fatalf("done %d of %d jobs, want every job exactly once", done, 6*len(markets))
	}
	if replaced == 0 {
		t.Error("no job was re-placed; the kill landed after the campaign finished")
	}

	// Re-placed markets hold a bumped-epoch lease on the survivor.
	st := tf.status(t)
	if n := aliveMembers(st); n != 1 {
		t.Errorf("alive members after kill: %d, want 1", n)
	}
	bumped := 0
	for m, p := range st.Placements {
		if p.Epoch > 1 {
			bumped++
			if p.Node != survivor {
				t.Errorf("re-placed market %s on %s, want survivor %s", m, p.Node, survivor)
			}
		}
	}
	if bumped == 0 {
		t.Error("no market shows a bumped epoch after failover")
	}

	// Lease history is journaled: every placement has a TypeLease trail
	// ending at (survivor, current epoch).
	last := map[string]journal.Record{}
	if err := journal.Replay(tf.journalPath, func(rec journal.Record) error {
		if rec.Type == journal.TypeLease {
			if prev, ok := last[rec.Market]; ok && rec.Epoch <= prev.Epoch {
				t.Errorf("market %s: lease epochs not increasing (%d after %d)", rec.Market, rec.Epoch, prev.Epoch)
			}
			last[rec.Market] = rec
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for m, p := range st.Placements {
		rec, ok := last[m]
		if !ok {
			t.Errorf("market %s: no lease record journaled", m)
			continue
		}
		if rec.Node != p.Node || rec.Epoch != p.Epoch {
			t.Errorf("market %s: journal says (%s, %d), placement table says (%s, %d)",
				m, rec.Node, rec.Epoch, p.Node, p.Epoch)
		}
	}
}

// TestFleetGracefulDrain: draining a worker via the coordinator keeps
// its in-flight dispatches running, places nothing new on it, and its
// Leave hands results back without loss.
func TestFleetGracefulDrain(t *testing.T) {
	tf := startTestFleet(t, "w1", "w2")
	waitFor(t, 5*time.Second, "both workers to join", func() bool {
		return aliveMembers(tf.status(t)) == 2
	})

	id := tf.submit(t, jobsBody(2, "naive", "suburban/31", "urban/32"))
	waitFor(t, 60*time.Second, "campaign to finish", func() bool {
		return tf.campaign(t, id).Finished
	})

	// Drain one worker, then leave; new submissions must land on the
	// other.
	st := tf.status(t)
	drained := st.Members[0].NodeID
	other := st.Members[1].NodeID
	resp, err := http.Post(tf.coordSrv.URL+"/fleet/drain", "application/json",
		strings.NewReader(fmt.Sprintf(`{"node_id":%q}`, drained)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: got %s", resp.Status)
	}
	if err := tf.workers[drained].agent.Leave(context.Background()); err != nil {
		t.Fatal(err)
	}

	id2 := tf.submit(t, jobsBody(2, "naive", "suburban/33"))
	waitFor(t, 60*time.Second, "post-drain campaign to finish", func() bool {
		return tf.campaign(t, id2).Finished
	})
	for _, j := range tf.campaign(t, id2).Jobs {
		if j.Node != other {
			t.Errorf("post-drain job %d ran on %s, want %s", j.ID, j.Node, other)
		}
		if j.State != "done" {
			t.Errorf("post-drain job %d state %q", j.ID, j.State)
		}
	}
	// The departed worker shows up in the eviction history as a graceful
	// leave, not a failure.
	found := false
	for _, ev := range tf.status(t).Evictions {
		if ev.Node == drained && ev.Reason == "graceful leave" {
			found = true
		}
	}
	if !found {
		t.Errorf("no graceful-leave record for %s in %+v", drained, tf.status(t).Evictions)
	}
}

// TestFleetRejectsInvalidSpecs: the coordinator validates every spec
// before admitting a campaign. An invalid nested spec, alone or next to
// a valid job, is refused with 400 and nothing is admitted — a worker
// would refuse the dispatch carrying it, and the reconcile loop would
// re-send it forever while the valid jobs on its market stalled.
func TestFleetRejectsInvalidSpecs(t *testing.T) {
	tf := startTestFleet(t, "w1")
	waitFor(t, 5*time.Second, "the worker to join", func() bool {
		return aliveMembers(tf.status(t)) == 1
	})
	const valid = `{"class":"suburban","seed":41,"scenario":"a","method":"naive"}`
	invalid := map[string]string{
		"bad sim fault script":   `{"class":"suburban","seed":41,"kind":"simulate","sim":{"faults":"meteor@5"}}`,
		"sim start hour -3":      `{"class":"suburban","seed":41,"kind":"simulate","sim":{"diurnal":true,"start_hour":-3}}`,
		"wave overlap 2":         `{"class":"suburban","seed":41,"kind":"wave","wave":{"overlap_threshold":2}}`,
		"exec chaos step 0":      `{"class":"suburban","seed":41,"kind":"execute","exec":{"chaos":"push-error@0"}}`,
		"exec start hour -3":     `{"class":"suburban","seed":41,"kind":"execute","exec":{"diurnal":true,"start_hour":-3}}`,
		"sim config on plan job": `{"class":"suburban","seed":41,"sim":{"seed":1}}`,
		"unknown kind":           `{"class":"suburban","seed":41,"kind":"dream"}`,
	}
	for name, job := range invalid {
		for _, body := range []string{
			`{"jobs":[` + job + `]}`,
			`{"jobs":[` + valid + `,` + job + `]}`,
		} {
			resp, err := http.Post(tf.coordSrv.URL+"/campaigns", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: %s, want 400 Bad Request", name, resp.Status)
			}
		}
	}
	resp, err := http.Get(tf.coordSrv.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Campaigns []string `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 0 {
		t.Errorf("coordinator admitted campaigns %v", list.Campaigns)
	}
	if ids := tf.workers["w1"].orch.CampaignIDs(); len(ids) != 0 {
		t.Errorf("worker received campaigns %v", ids)
	}
}
