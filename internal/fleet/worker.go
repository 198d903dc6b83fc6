package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"magus/internal/campaign"
)

// WorkerConfig tunes the worker-side fleet agent.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// NodeID is this worker's stable identity (LoadOrCreateNodeID).
	NodeID string
	// AdvertiseURL is the base URL the coordinator should dispatch to —
	// this worker's own listen address as reachable from the coordinator.
	AdvertiseURL string
	// Capacity is the worker-pool size reported for placement.
	Capacity int
	// Interval overrides the heartbeat cadence; zero uses the interval
	// the coordinator advises at join time (2s default).
	Interval time.Duration
	// Orch supplies load and cache counters for heartbeats.
	Orch *campaign.Orchestrator
	// Client issues the HTTP calls (default http.DefaultClient).
	Client *http.Client
	// Logf receives join/re-join/error events; nil logs nothing.
	Logf func(format string, args ...any)
}

// Worker is the agent loop a fleet worker runs next to its
// orchestrator: join once, heartbeat forever, re-join when the
// coordinator forgets us (restart or eviction), leave on drain.
type Worker struct {
	cfg      WorkerConfig
	started  time.Time
	interval time.Duration
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu     sync.Mutex
	joined bool
}

// StartWorker joins the fleet and starts the heartbeat loop. An
// unreachable coordinator is not fatal: the loop keeps retrying the
// join, so worker and coordinator can start in either order.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" || cfg.NodeID == "" || cfg.AdvertiseURL == "" {
		return nil, fmt.Errorf("fleet: worker needs coordinator, node id and advertise url")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	w := &Worker{
		cfg:      cfg,
		started:  time.Now(),
		interval: cfg.Interval,
		stop:     make(chan struct{}),
	}
	if w.interval <= 0 {
		w.interval = 2 * time.Second
	}
	if err := w.join(); err != nil {
		w.logf("fleet: initial join failed (will retry): %v", err)
	}
	w.wg.Add(1)
	go w.loop()
	return w, nil
}

// NodeID returns the worker's identity.
func (w *Worker) NodeID() string { return w.cfg.NodeID }

// Joined reports whether the last join or heartbeat was acknowledged.
func (w *Worker) Joined() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.joined
}

// Close stops the heartbeat loop without telling the coordinator
// anything; use Leave for a graceful exit. Safe to call twice, and
// after Leave.
func (w *Worker) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.wg.Wait()
}

// Leave hands the worker's leases back: called after the local drain
// finished, so the coordinator can sweep final results and re-place
// whatever was parked. It stops the heartbeat loop first (as Close
// does): a heartbeat after the leave would get a 404 and re-join.
func (w *Worker) Leave(ctx context.Context) error {
	w.Close()
	body, _ := json.Marshal(LeaveRequest{NodeID: w.cfg.NodeID})
	resp, err := w.post(ctx, "/fleet/leave", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: leave: coordinator said %s", resp.Status)
	}
	return nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

func (w *Worker) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.cfg.Client.Do(req)
}

// join announces the worker; on success it adopts the coordinator's
// advised heartbeat interval unless the config pinned one.
func (w *Worker) join() error {
	body, _ := json.Marshal(JoinRequest{
		NodeID: w.cfg.NodeID, URL: w.cfg.AdvertiseURL, Capacity: w.cfg.Capacity,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := w.post(ctx, "/fleet/join", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: join: coordinator said %s", resp.Status)
	}
	var ack JoinResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ack); err != nil {
		return fmt.Errorf("fleet: join: bad ack: %w", err)
	}
	if w.cfg.Interval <= 0 && ack.HeartbeatMS > 0 {
		w.interval = time.Duration(ack.HeartbeatMS) * time.Millisecond
	}
	w.mu.Lock()
	w.joined = true
	w.mu.Unlock()
	w.logf("fleet: joined coordinator %s (heartbeat %s)", ack.Coordinator, w.interval)
	return nil
}

// heartbeat reports load; a 404 means the coordinator no longer knows
// us (it restarted, or we were evicted while partitioned) and the reply
// is to re-join.
func (w *Worker) heartbeat() {
	m := w.cfg.Orch.Metrics()
	hb := Heartbeat{
		NodeID:   w.cfg.NodeID,
		UptimeS:  time.Since(w.started).Seconds(),
		Capacity: w.cfg.Capacity,
		Queued:   m.Queued,
		InFlight: m.InFlight,
		Draining: m.Draining,
		Cache:    m.Cache,
	}
	body, _ := json.Marshal(hb)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := w.post(ctx, "/fleet/heartbeat", body)
	if err != nil {
		w.mu.Lock()
		w.joined = false
		w.mu.Unlock()
		w.logf("fleet: heartbeat failed: %v", err)
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusOK:
		w.mu.Lock()
		w.joined = true
		w.mu.Unlock()
	case http.StatusNotFound:
		w.logf("fleet: coordinator forgot us; re-joining")
		if err := w.join(); err != nil {
			w.logf("fleet: re-join failed: %v", err)
		}
	default:
		w.logf("fleet: heartbeat: coordinator said %s", resp.Status)
	}
}

func (w *Worker) loop() {
	defer w.wg.Done()
	// Jitter each cycle to ±25% of the nominal interval, seeded per
	// node: after a mass restart (rack power cycle, fleet-wide deploy)
	// synchronized workers would otherwise hammer the coordinator in
	// lockstep bursts every beat; decorrelated phases spread the same
	// load evenly.
	h := fnv.New64a()
	h.Write([]byte(w.cfg.NodeID))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	jittered := func() time.Duration {
		return time.Duration(float64(w.interval) * (0.75 + 0.5*rng.Float64()))
	}
	t := time.NewTimer(jittered())
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		if !w.Joined() {
			if err := w.join(); err != nil {
				t.Reset(jittered())
				continue
			}
			// Interval may have changed with the fresh ack; the next
			// Reset below picks it up.
		}
		w.heartbeat()
		t.Reset(jittered())
	}
}
