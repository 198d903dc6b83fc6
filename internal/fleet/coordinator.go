package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"magus/internal/campaign"
	"magus/internal/journal"
)

// Config tunes a Coordinator. Zero values select defaults.
type Config struct {
	// NodeID is the coordinator's own identity, reported in Status.
	NodeID string
	// HeartbeatInterval is the cadence advised to joining workers
	// (default 2s).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a worker may go silent before it is
	// evicted and its in-flight jobs are re-placed (default 3x the
	// interval).
	HeartbeatTimeout time.Duration
	// ReconcileInterval is the cadence of the liveness / dispatch / poll
	// loop (default 500ms).
	ReconcileInterval time.Duration
	// Journal, when set, receives a TypeLease record for every lease
	// grant and re-grant, making the epoch history durable and auditable.
	Journal *journal.Journal
	// Client issues the coordinator's HTTP calls (default
	// http.DefaultClient).
	Client *http.Client
	// Logf receives operational events (joins, evictions, re-placements);
	// nil logs nothing.
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.NodeID == "" {
		c.NodeID = NewNodeID()
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * c.HeartbeatInterval
	}
	if c.ReconcileInterval <= 0 {
		c.ReconcileInterval = 500 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
}

// requestTimeout bounds each dispatch or poll HTTP call.
const requestTimeout = 10 * time.Second

// member is the coordinator's view of one joined worker.
type member struct {
	id       string
	url      string
	capacity int
	joined   time.Time
	lastSeen time.Time
	draining bool
	beat     Heartbeat
	// assigned counts jobs dispatched since the last heartbeat, so
	// placement sees load the next heartbeat has not reported yet.
	assigned int
}

// placement is a market's lease. Entries are never deleted — only the
// node changes — so the epoch is monotonic per market for the life of
// the coordinator, which is what makes it a fencing token.
type placement struct {
	node  string
	epoch int64
}

// dispatch is one group of a campaign's jobs sent to (or awaiting) a
// market's lease holder.
type dispatch struct {
	market MarketKey
	node   string
	epoch  int64
	subID  string // worker-local campaign ID, set once accepted
	sent   bool
	done   bool
	jobs   []int // fleet job IDs, in dispatch order (mirrors the worker's job order)
}

// fleetJob is one job tracked at fleet level.
type fleetJob struct {
	id       int
	spec     campaign.JobSpec
	market   MarketKey
	state    string
	terminal bool
	errMsg   string
	result   *campaign.Result
	node     string
	epoch    int64
	attempts int // dispatch attempts (1 + re-placements)
}

// fleetCampaign is one submitted batch, fanned out by market.
type fleetCampaign struct {
	id         string
	created    time.Time
	cancelled  bool
	jobs       []*fleetJob
	dispatches []*dispatch
}

// Eviction records a worker leaving the fleet and how much work was
// taken back from it.
type Eviction struct {
	Node         string    `json:"node"`
	Time         time.Time `json:"time"`
	Reason       string    `json:"reason"`
	ReplacedJobs int       `json:"replaced_jobs"`
}

// Coordinator owns fleet membership, the placement table and the fleet
// campaigns. Construct with New, release with Close.
type Coordinator struct {
	cfg     Config
	started time.Time
	stop    chan struct{}
	wg      sync.WaitGroup

	mu         sync.Mutex
	members    map[string]*member
	placements map[MarketKey]*placement
	campaigns  map[string]*fleetCampaign
	nextID     int
	evictions  []Eviction
}

// New starts a coordinator and its reconcile loop (liveness, dispatch
// retry, result polling).
func New(cfg Config) *Coordinator {
	cfg.applyDefaults()
	c := &Coordinator{
		cfg:        cfg,
		started:    time.Now(),
		stop:       make(chan struct{}),
		members:    make(map[string]*member),
		placements: make(map[MarketKey]*placement),
		campaigns:  make(map[string]*fleetCampaign),
	}
	c.wg.Add(1)
	go c.reconcileLoop()
	return c
}

// Close stops the reconcile loop. Workers notice on their next
// heartbeat failure.
func (c *Coordinator) Close() {
	close(c.stop)
	c.wg.Wait()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// NodeID returns the coordinator's identity.
func (c *Coordinator) NodeID() string { return c.cfg.NodeID }

// HeartbeatInterval returns the cadence advised to workers.
func (c *Coordinator) HeartbeatInterval() time.Duration { return c.cfg.HeartbeatInterval }

// --- membership ---------------------------------------------------------

// Join registers (or re-registers) a worker. A rejoin under a known
// NodeID replaces the previous registration — the worker restarted —
// and any dispatch still addressed to it is re-sent, since the restart
// lost the worker-local campaigns the coordinator was polling.
func (c *Coordinator) Join(req JoinRequest) (JoinResponse, error) {
	if req.NodeID == "" || req.URL == "" {
		return JoinResponse{}, fmt.Errorf("fleet: join needs node_id and url")
	}
	if req.Capacity <= 0 {
		req.Capacity = 1
	}
	now := time.Now()
	c.mu.Lock()
	rejoin := c.members[req.NodeID] != nil
	c.members[req.NodeID] = &member{
		id: req.NodeID, url: req.URL, capacity: req.Capacity,
		joined: now, lastSeen: now,
	}
	resent := 0
	if rejoin {
		// The fresh process knows nothing of the campaigns we dispatched
		// to its predecessor; mark them for re-dispatch under the same
		// lease (the market did not move).
		for _, camp := range c.campaigns {
			for _, d := range camp.dispatches {
				if d.node == req.NodeID && d.sent && !d.done {
					d.sent, d.subID = false, ""
					resent++
				}
			}
		}
	}
	c.mu.Unlock()
	c.logf("fleet: %s joined from %s (capacity %d, rejoin %v, %d dispatches to resend)",
		req.NodeID, req.URL, req.Capacity, rejoin, resent)
	return JoinResponse{
		Coordinator: c.cfg.NodeID,
		HeartbeatMS: c.cfg.HeartbeatInterval.Milliseconds(),
	}, nil
}

// RecordHeartbeat folds a worker's heartbeat into the membership table.
// ErrUnknownNode tells an evicted (or never-joined) worker to re-join.
func (c *Coordinator) RecordHeartbeat(hb Heartbeat) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	mem, ok := c.members[hb.NodeID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, hb.NodeID)
	}
	mem.lastSeen = time.Now()
	mem.beat = hb
	if hb.Capacity > 0 {
		mem.capacity = hb.Capacity
	}
	mem.draining = hb.Draining
	mem.assigned = 0
	return nil
}

// DrainNode marks a worker draining: its current dispatches run to
// completion, but no new market is placed on it. The worker itself
// drains via its own SIGTERM path; this is the coordinator-side half.
func (c *Coordinator) DrainNode(nodeID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	mem, ok := c.members[nodeID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeID)
	}
	mem.draining = true
	c.logf("fleet: %s draining (operator request)", nodeID)
	return nil
}

// EvictNode force-removes a worker and re-places its in-flight jobs
// immediately, without waiting for the heartbeat timeout.
func (c *Coordinator) EvictNode(nodeID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[nodeID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeID)
	}
	c.evictLocked(nodeID, "operator evict")
	return nil
}

// Leave is a draining worker handing its leases back: the coordinator
// takes one final look at the worker's campaigns (collecting results
// that finished during the drain), then removes it and re-places
// whatever is left. Unlike eviction, nothing the worker completed is
// lost.
func (c *Coordinator) Leave(ctx context.Context, nodeID string) error {
	c.mu.Lock()
	mem, ok := c.members[nodeID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeID)
	}
	polls := c.pollItemsLocked(func(d *dispatch) bool { return d.node == nodeID })
	url := mem.url
	c.mu.Unlock()

	// Final result sweep while the worker still answers status reads
	// (drained magusd keeps read endpoints up until Leave returns).
	for _, p := range polls {
		c.pollDispatch(ctx, url, p)
	}
	c.mu.Lock()
	c.evictLocked(nodeID, "graceful leave")
	c.mu.Unlock()
	return nil
}

// evictLocked removes a member, records the eviction, and returns its
// unfinished jobs to the pending pool for re-placement. The member's
// placements stay in the table (the epoch must keep counting up) but
// point at a node that no longer exists, so the next dispatch re-places
// them under a bumped epoch.
func (c *Coordinator) evictLocked(nodeID, reason string) {
	delete(c.members, nodeID)
	replaced := 0
	for _, camp := range c.campaigns {
		for _, d := range camp.dispatches {
			if d.node != nodeID || d.done {
				continue
			}
			replaced += c.resetDispatchLocked(camp, d)
		}
	}
	c.evictions = append(c.evictions, Eviction{
		Node: nodeID, Time: time.Now(), Reason: reason, ReplacedJobs: replaced,
	})
	c.logf("fleet: evicted %s (%s), %d jobs returned for re-placement", nodeID, reason, replaced)
}

// resetDispatchLocked returns a dispatch's unfinished jobs to the
// pending pool (or folds them cancelled when the campaign is), counting
// the jobs that will run elsewhere.
func (c *Coordinator) resetDispatchLocked(camp *fleetCampaign, d *dispatch) int {
	d.sent, d.subID, d.node, d.epoch = false, "", "", 0
	n := 0
	for _, ji := range d.jobs {
		j := camp.jobs[ji]
		if j.terminal {
			continue
		}
		if camp.cancelled {
			j.terminal, j.state = true, "cancelled"
			if j.errMsg == "" {
				j.errMsg = "campaign cancelled"
			}
			continue
		}
		j.state, j.node, j.epoch = "queued", "", 0
		n++
	}
	if n == 0 {
		d.done = true
	}
	return n
}

// aliveLocked reports whether a member has heartbeat recently enough to
// receive work.
func (c *Coordinator) aliveLocked(mem *member) bool {
	return time.Since(mem.lastSeen) <= c.cfg.HeartbeatTimeout
}

// --- placement ----------------------------------------------------------

// placeLocked resolves a market's lease holder, granting (or
// re-granting under a bumped epoch) when the market is unplaced or its
// holder is gone. Placement is sticky: a live, non-draining holder is
// always reused, keeping that worker's engine cache and model snapshot
// hot for the market. New grants pick the worker with the most
// available capacity (capacity − queued − in-flight − just-assigned),
// tie-broken by rendezvous hash so equal fleets make the same choice
// deterministically.
func (c *Coordinator) placeLocked(m MarketKey) (*member, int64, error) {
	if p, ok := c.placements[m]; ok {
		if mem := c.members[p.node]; mem != nil && !mem.draining && c.aliveLocked(mem) {
			return mem, p.epoch, nil
		}
	}
	var best *member
	var bestAvail int
	var bestScore uint64
	for _, mem := range c.members {
		if mem.draining || !c.aliveLocked(mem) {
			continue
		}
		avail := mem.capacity - int(mem.beat.Queued+mem.beat.InFlight) - mem.assigned
		score := rendezvous(m, mem.id)
		if best == nil || avail > bestAvail || (avail == bestAvail && score > bestScore) {
			best, bestAvail, bestScore = mem, avail, score
		}
	}
	if best == nil {
		return nil, 0, ErrNoWorkers
	}
	epoch := int64(1)
	if p, ok := c.placements[m]; ok {
		epoch = p.epoch + 1
	}
	c.placements[m] = &placement{node: best.id, epoch: epoch}
	c.journalLease(m, best.id, epoch)
	c.logf("fleet: market %s -> %s (epoch %d)", m, best.id, epoch)
	return best, epoch, nil
}

// RestoreLeases rebuilds the placement table from the lease trail a
// previous coordinator journaled at path; the highest epoch per market
// wins. Restored entries point at nodes that have not rejoined yet, so
// the first submission against a restored market re-places it at the
// next epoch — epoch monotonicity, and with it the commit fence,
// survives a coordinator restart. Call it after New and before serving
// traffic; it returns the number of markets restored.
func (c *Coordinator) RestoreLeases(path string) (int, error) {
	last := map[MarketKey]*placement{}
	err := journal.Replay(path, func(rec journal.Record) error {
		if rec.Type != journal.TypeLease {
			return nil
		}
		m, ok := ParseMarket(rec.Market)
		if !ok {
			return fmt.Errorf("lease record seq %d: bad market %q", rec.Seq, rec.Market)
		}
		if p := last[m]; p == nil || rec.Epoch > p.epoch {
			last[m] = &placement{node: rec.Node, epoch: rec.Epoch}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for m, p := range last {
		if cur, ok := c.placements[m]; !ok || p.epoch > cur.epoch {
			c.placements[m] = p
		}
	}
	return len(last), nil
}

// journalLease makes a lease grant durable and auditable (best-effort;
// the in-memory table is authoritative for routing).
func (c *Coordinator) journalLease(m MarketKey, node string, epoch int64) {
	if c.cfg.Journal == nil {
		return
	}
	_ = c.cfg.Journal.Append(journal.Record{
		Type: journal.TypeLease, Market: m.String(), Node: node, Epoch: epoch,
	})
	_ = c.cfg.Journal.Sync()
}

// --- campaigns ----------------------------------------------------------

// Submit fans a batch of job specs out across the fleet, grouped by
// market. Every spec is validated first, as a worker's Submit would:
// one invalid spec rejects the whole batch before anything is admitted,
// since a worker refuses a dispatch that carries it. The batch is
// rejected with ErrNoWorkers when no live, non-draining worker exists;
// individual dispatch failures after admission are retried by the
// reconcile loop instead.
func (c *Coordinator) Submit(specs []campaign.JobSpec) (CampaignView, error) {
	if len(specs) == 0 {
		return CampaignView{}, fmt.Errorf("fleet: no jobs")
	}
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return CampaignView{}, fmt.Errorf("job %d: %w", i, err)
		}
	}
	c.mu.Lock()
	available := false
	for _, mem := range c.members {
		if !mem.draining && c.aliveLocked(mem) {
			available = true
			break
		}
	}
	if !available {
		c.mu.Unlock()
		return CampaignView{}, ErrNoWorkers
	}
	c.nextID++
	camp := &fleetCampaign{
		id:      fmt.Sprintf("f%d", c.nextID),
		created: time.Now(),
		jobs:    make([]*fleetJob, len(specs)),
	}
	byMarket := make(map[MarketKey]*dispatch)
	var order []*dispatch
	for i, sp := range specs {
		m := MarketOf(sp)
		camp.jobs[i] = &fleetJob{id: i, spec: sp, market: m, state: "queued"}
		d, ok := byMarket[m]
		if !ok {
			d = &dispatch{market: m}
			byMarket[m] = d
			order = append(order, d)
		}
		d.jobs = append(d.jobs, i)
	}
	camp.dispatches = order
	c.campaigns[camp.id] = camp
	view := c.viewLocked(camp)
	c.mu.Unlock()

	c.dispatchOnce() // first delivery attempt now; reconcile retries
	return view, nil
}

// Cancel aborts a fleet campaign: undispatched jobs flip to cancelled
// immediately and every outstanding worker-side sub-campaign receives a
// cancel. Returns ErrUnknownCampaign for an unknown ID.
func (c *Coordinator) Cancel(id string) (CampaignView, error) {
	c.mu.Lock()
	camp, ok := c.campaigns[id]
	if !ok {
		c.mu.Unlock()
		return CampaignView{}, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	camp.cancelled = true
	for _, j := range camp.jobs {
		if !j.terminal && j.node == "" {
			j.terminal, j.state, j.errMsg = true, "cancelled", "campaign cancelled"
		}
	}
	type cancelTarget struct{ url, subID string }
	var targets []cancelTarget
	for _, d := range camp.dispatches {
		if d.sent && !d.done {
			if mem := c.members[d.node]; mem != nil {
				targets = append(targets, cancelTarget{mem.url, d.subID})
			}
		}
	}
	view := c.viewLocked(camp)
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	for _, t := range targets {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url+"/campaigns/"+t.subID+"/cancel", nil)
		if err != nil {
			continue
		}
		if resp, err := c.cfg.Client.Do(req); err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
	}
	return view, nil
}

// CampaignIDs lists fleet campaigns, oldest first.
func (c *Coordinator) CampaignIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.campaigns))
	for id := range c.campaigns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return len(ids[i]) < len(ids[j]) || (len(ids[i]) == len(ids[j]) && ids[i] < ids[j])
	})
	return ids
}

// Campaign returns the status view of one fleet campaign.
func (c *Coordinator) Campaign(id string) (CampaignView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	camp, ok := c.campaigns[id]
	if !ok {
		return CampaignView{}, false
	}
	return c.viewLocked(camp), true
}

// --- reconcile loop -----------------------------------------------------

func (c *Coordinator) reconcileLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ReconcileInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.evictStale()
		c.dispatchOnce()
		c.pollOnce()
	}
}

// evictStale removes members whose heartbeats stopped and re-places
// their work.
func (c *Coordinator) evictStale() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, mem := range c.members {
		if !c.aliveLocked(mem) {
			c.evictLocked(id, "missed heartbeats")
		}
	}
}

// dispatchOnce delivers every pending (new, failed, or re-placed)
// dispatch to its market's lease holder.
func (c *Coordinator) dispatchOnce() {
	type send struct {
		camp *fleetCampaign
		d    *dispatch
		node string
		url  string
		body DispatchRequest
	}
	c.mu.Lock()
	var sends []send
	for _, camp := range c.campaigns {
		if camp.cancelled {
			continue
		}
		for _, d := range camp.dispatches {
			if d.sent || d.done {
				continue
			}
			var specs []campaign.JobSpec
			var ids []int
			for _, ji := range d.jobs {
				if j := camp.jobs[ji]; !j.terminal {
					specs = append(specs, j.spec)
					ids = append(ids, ji)
				}
			}
			if len(specs) == 0 {
				d.done = true
				continue
			}
			mem, epoch, err := c.placeLocked(d.market)
			if err != nil {
				continue // no capacity right now; retried next tick
			}
			d.node, d.epoch, d.jobs = mem.id, epoch, ids
			mem.assigned += len(specs)
			for _, ji := range ids {
				j := camp.jobs[ji]
				j.node, j.epoch = mem.id, epoch
				j.attempts++
			}
			sends = append(sends, send{camp, d, mem.id, mem.url, DispatchRequest{
				Campaign: camp.id, Market: d.market.String(), Epoch: epoch, Jobs: specs,
			}})
		}
	}
	c.mu.Unlock()

	for _, s := range sends {
		resp, status, err := c.postDispatch(s.url, s.body)
		c.mu.Lock()
		// The dispatch may have been reset (eviction) while the POST was
		// in flight; only commit if we still own it.
		if s.d.node == s.node && s.d.epoch == s.body.Epoch {
			switch {
			case err == nil && status == http.StatusAccepted:
				s.d.sent, s.d.subID = true, resp.ID
			case status == http.StatusConflict:
				// The worker has seen a higher epoch for this market: our
				// lease view is behind. Drop the placement claim so the next
				// tick re-places under a fresh epoch.
				if p, ok := c.placements[s.d.market]; ok && p.epoch == s.d.epoch {
					p.node = "" // no such member; forces re-place + epoch bump
				}
				s.d.node, s.d.epoch = "", 0
			default:
				// Send failed; leave unsent for retry. A dead worker is
				// caught by the heartbeat timeout.
			}
		}
		c.mu.Unlock()
		if err != nil {
			c.logf("fleet: dispatch %s/%s to %s failed: %v", s.camp.id, s.d.market, s.node, err)
		}
	}
}

// postDispatch delivers one dispatch and decodes the acceptance.
func (c *Coordinator) postDispatch(url string, body DispatchRequest) (DispatchResponse, int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return DispatchResponse{}, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/fleet/jobs", bytes.NewReader(raw))
	if err != nil {
		return DispatchResponse{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return DispatchResponse{}, 0, err
	}
	defer resp.Body.Close()
	var out DispatchResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil && resp.StatusCode == http.StatusAccepted {
		return DispatchResponse{}, resp.StatusCode, err
	}
	return out, resp.StatusCode, nil
}

// pollItem snapshots what pollDispatch needs without holding the lock
// during HTTP.
type pollItem struct {
	camp  *fleetCampaign
	d     *dispatch
	subID string
	epoch int64
}

// pollItemsLocked collects the outstanding dispatches matching filter.
func (c *Coordinator) pollItemsLocked(filter func(*dispatch) bool) []pollItem {
	var items []pollItem
	for _, camp := range c.campaigns {
		for _, d := range camp.dispatches {
			if d.sent && !d.done && filter(d) {
				items = append(items, pollItem{camp, d, d.subID, d.epoch})
			}
		}
	}
	return items
}

// pollOnce reads every outstanding sub-campaign's status from its
// worker and folds terminal results into the fleet campaigns.
func (c *Coordinator) pollOnce() {
	c.mu.Lock()
	urls := make(map[*dispatch]string)
	items := c.pollItemsLocked(func(d *dispatch) bool {
		mem := c.members[d.node]
		if mem == nil {
			return false
		}
		urls[d] = mem.url
		return true
	})
	c.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	for _, item := range items {
		c.pollDispatch(ctx, urls[item.d], item)
	}
}

// pollDispatch fetches one sub-campaign status and commits its results.
// Commitment is epoch-fenced twice: the dispatch must not have been
// reset while the poll was in flight, and each job must still be owned
// by this dispatch's lease (a re-placed job carries a higher epoch, so
// a late result from the superseded lease is rejected — the
// double-commit guard).
func (c *Coordinator) pollDispatch(ctx context.Context, url string, item pollItem) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/campaigns/"+item.subID, nil)
	if err != nil {
		return
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return // liveness will decide the worker's fate
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// The worker restarted and lost the sub-campaign; re-dispatch.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		c.mu.Lock()
		if item.d.subID == item.subID && item.d.epoch == item.epoch && !item.d.done {
			item.d.sent, item.d.subID = false, ""
		}
		c.mu.Unlock()
		return
	}
	if resp.StatusCode != http.StatusOK {
		return
	}
	var body struct {
		Campaign campaign.Snapshot `json:"campaign"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&body); err != nil {
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if item.d.subID != item.subID || item.d.epoch != item.epoch || item.d.done {
		return // dispatch superseded while we were polling
	}
	if len(body.Campaign.Jobs) != len(item.d.jobs) {
		return // not ours (should not happen); refuse to fold
	}
	remaining := 0
	for i, js := range body.Campaign.Jobs {
		j := item.camp.jobs[item.d.jobs[i]]
		if j.terminal {
			continue
		}
		if j.epoch != item.epoch || j.node != item.d.node {
			continue // job re-placed under a newer lease; stale result fenced
		}
		switch js.State {
		case "done":
			j.terminal, j.state, j.result = true, "done", js.Result
		case "failed":
			j.terminal, j.state, j.errMsg = true, "failed", js.Error
		case "cancelled":
			if item.camp.cancelled {
				j.terminal, j.state, j.errMsg = true, "cancelled", js.Error
			}
			// A worker-side cancel we did not ask for (drain parking) is
			// not terminal at fleet level: the job will be re-placed when
			// the worker leaves or is evicted.
		default:
			j.state = js.State // mirror queued/running for status readers
		}
		if !j.terminal {
			remaining++
		}
	}
	if remaining == 0 {
		item.d.done = true
	}
}

// --- status -------------------------------------------------------------

// JobView is the fleet-level status of one job; field names mirror
// campaign.JobSnapshot so magusctl's campaign client, which reads
// httpapi.CampaignStatus, can poll a fleet campaign unchanged
// (TestFleetCampaignReadsAsCampaignStatus).
type JobView struct {
	ID       int              `json:"id"`
	Class    string           `json:"class"`
	Seed     int64            `json:"seed"`
	Scenario string           `json:"scenario"`
	Method   string           `json:"method"`
	Utility  string           `json:"utility"`
	Market   string           `json:"market"`
	State    string           `json:"state"`
	Error    string           `json:"error,omitempty"`
	Result   *campaign.Result `json:"result,omitempty"`
	Node     string           `json:"node,omitempty"`
	Epoch    int64            `json:"epoch,omitempty"`
	Attempts int              `json:"attempts,omitempty"`
}

// CampaignView is the fleet-level status of one campaign, shaped like
// campaign.Snapshot.
type CampaignView struct {
	ID           string         `json:"id"`
	Created      time.Time      `json:"created"`
	Finished     bool           `json:"finished"`
	Cancelled    bool           `json:"cancelled"`
	Counts       map[string]int `json:"counts"`
	MeanRecovery float64        `json:"mean_recovery"`
	Jobs         []JobView      `json:"jobs"`
}

func (c *Coordinator) viewLocked(camp *fleetCampaign) CampaignView {
	v := CampaignView{
		ID:        camp.id,
		Created:   camp.created,
		Cancelled: camp.cancelled,
		Counts:    make(map[string]int, len(campaign.JobStates)),
		Jobs:      make([]JobView, len(camp.jobs)),
	}
	for _, st := range campaign.JobStates {
		v.Counts[st.String()] = 0
	}
	finished := true
	var recovered float64
	done := 0
	for i, j := range camp.jobs {
		v.Jobs[i] = JobView{
			ID:       j.id,
			Class:    j.spec.Class.String(),
			Seed:     j.spec.Seed,
			Scenario: j.spec.Scenario.Short(),
			Method:   j.spec.Method.String(),
			Utility:  j.spec.Utility,
			Market:   j.market.String(),
			State:    j.state,
			Error:    j.errMsg,
			Result:   j.result,
			Node:     j.node,
			Epoch:    j.epoch,
			Attempts: j.attempts,
		}
		v.Counts[j.state]++
		if !j.terminal {
			finished = false
		}
		if j.state == "done" && j.result != nil {
			recovered += j.result.Recovery
			done++
		}
	}
	v.Finished = finished
	if done > 0 {
		v.MeanRecovery = recovered / float64(done)
	}
	return v
}

// MemberStatus is one worker's row in Status.
type MemberStatus struct {
	NodeID     string               `json:"node_id"`
	URL        string               `json:"url"`
	Alive      bool                 `json:"alive"`
	Draining   bool                 `json:"draining,omitempty"`
	LastSeenMS float64              `json:"last_seen_ms"`
	Capacity   int                  `json:"capacity"`
	Queued     int64                `json:"queued"`
	InFlight   int64                `json:"in_flight"`
	UptimeS    float64              `json:"uptime_s"`
	Markets    []string             `json:"markets,omitempty"`
	Cache      *campaign.CacheStats `json:"engine_cache,omitempty"`
	Healthz    json.RawMessage      `json:"healthz,omitempty"`
}

// PlacementView is one market lease in Status.
type PlacementView struct {
	Node  string `json:"node"`
	Epoch int64  `json:"epoch"`
}

// CacheTotals sums the fleet's engine-cache counters.
type CacheTotals struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Builds    int64 `json:"builds"`
	Evictions int64 `json:"evictions"`
}

// Status is the fleet-wide aggregation served at GET /fleet/status.
type Status struct {
	Coordinator string                   `json:"coordinator"`
	UptimeS     float64                  `json:"uptime_s"`
	Members     []MemberStatus           `json:"members"`
	Placements  map[string]PlacementView `json:"placements"`
	Campaigns   map[string]int           `json:"campaigns"`
	CacheTotal  CacheTotals              `json:"engine_cache_total"`
	Evictions   []Eviction               `json:"evictions"`
}

// Status aggregates fleet health: per-member load and cache counters
// from the latest heartbeats, live /healthz bodies fetched from every
// responsive worker (bounded by ctx), the placement table, campaign
// counts and the eviction history.
func (c *Coordinator) Status(ctx context.Context) Status {
	c.mu.Lock()
	st := Status{
		Coordinator: c.cfg.NodeID,
		UptimeS:     time.Since(c.started).Seconds(),
		// Empty collections marshal as [] / {}, not null: consumers
		// iterate without a presence check.
		Members:    make([]MemberStatus, 0, len(c.members)),
		Placements: make(map[string]PlacementView, len(c.placements)),
		Campaigns:  map[string]int{"total": 0, "finished": 0, "cancelled": 0},
		Evictions:  append([]Eviction{}, c.evictions...),
	}
	marketsByNode := make(map[string][]string)
	for m, p := range c.placements {
		st.Placements[m.String()] = PlacementView{Node: p.node, Epoch: p.epoch}
		marketsByNode[p.node] = append(marketsByNode[p.node], m.String())
	}
	for _, mem := range c.members {
		ms := MemberStatus{
			NodeID:     mem.id,
			URL:        mem.url,
			Alive:      c.aliveLocked(mem),
			Draining:   mem.draining,
			LastSeenMS: float64(time.Since(mem.lastSeen)) / float64(time.Millisecond),
			Capacity:   mem.capacity,
			Queued:     mem.beat.Queued,
			InFlight:   mem.beat.InFlight,
			UptimeS:    mem.beat.UptimeS,
			Markets:    marketsByNode[mem.id],
			Cache:      mem.beat.Cache,
		}
		sort.Strings(ms.Markets)
		if cs := mem.beat.Cache; cs != nil {
			st.CacheTotal.Hits += cs.Hits
			st.CacheTotal.Misses += cs.Misses
			st.CacheTotal.Builds += cs.Builds
			st.CacheTotal.Evictions += cs.Evictions
		}
		st.Members = append(st.Members, ms)
	}
	for _, camp := range c.campaigns {
		st.Campaigns["total"]++
		if camp.cancelled {
			st.Campaigns["cancelled"]++
		}
		if c.viewLocked(camp).Finished {
			st.Campaigns["finished"]++
		}
	}
	c.mu.Unlock()

	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].NodeID < st.Members[j].NodeID })
	var wg sync.WaitGroup
	for i := range st.Members {
		if !st.Members[i].Alive {
			continue
		}
		wg.Add(1)
		go func(ms *MemberStatus) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ms.URL+"/healthz", nil)
			if err != nil {
				return
			}
			resp, err := c.cfg.Client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			if err == nil && resp.StatusCode == http.StatusOK && json.Valid(raw) {
				ms.Healthz = raw
			}
		}(&st.Members[i])
	}
	wg.Wait()
	return st
}
