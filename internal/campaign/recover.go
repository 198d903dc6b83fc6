package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"magus/internal/journal"
)

// --- journal recording -------------------------------------------------

// verifyEpoch checks the orchestrator's fencing token against the
// journal's current epoch (nil when unfenced). A non-nil error means
// another process has claimed the journal since this orchestrator
// started: it must not commit anything further.
func (o *Orchestrator) verifyEpoch() error {
	if o.cfg.Journal == nil || o.cfg.Epoch == 0 {
		return nil
	}
	return o.cfg.Journal.VerifyEpoch(o.cfg.Epoch)
}

// journalSubmitted durably records every job of a freshly admitted
// campaign (one submitted record per job, then one fsync for the
// batch). Called before the jobs are enqueued: once a worker can see a
// job, its record is already on disk. A fenced orchestrator admits
// nothing: the jobs would belong to a journal someone else now owns.
func (o *Orchestrator) journalSubmitted(c *Campaign) error {
	j := o.cfg.Journal
	if j == nil {
		return nil
	}
	if err := o.verifyEpoch(); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	for _, job := range c.jobs {
		spec, err := json.Marshal(job.Spec)
		if err != nil {
			return fmt.Errorf("campaign: journal spec: %w", err)
		}
		if err := j.Append(journal.Record{
			Type:     journal.TypeSubmitted,
			Campaign: c.ID,
			Job:      job.ID,
			Epoch:    o.cfg.Epoch,
			Spec:     spec,
		}); err != nil {
			return err
		}
	}
	return j.Sync()
}

// journalAttempt records the start of one execution attempt (batched;
// losing it in a crash only costs an attempt count).
func (o *Orchestrator) journalAttempt(campaignID string, jobID, attempt int) {
	j := o.cfg.Journal
	if j == nil {
		return
	}
	_ = j.Append(journal.Record{
		Type:     journal.TypeAttempt,
		Campaign: campaignID,
		Job:      jobID,
		Attempt:  attempt,
		Epoch:    o.cfg.Epoch,
	})
}

// journalResult records a job's terminal state (batched; a result lost
// in a crash re-runs the job — at-least-once, never silently dropped).
// When the orchestrator's epoch has gone stale the record is suppressed
// instead: the journal's pending work now belongs to a later claimant,
// and committing a terminal state here could mark done a job the new
// owner is (correctly) about to re-run — the double-commit the fencing
// exists to prevent.
func (o *Orchestrator) journalResult(campaignID string, jobID int, state JobState, jerr error) {
	j := o.cfg.Journal
	if j == nil {
		return
	}
	if err := o.verifyEpoch(); err != nil {
		o.fencedResults.Add(1)
		return
	}
	rec := journal.Record{
		Type:     journal.TypeResult,
		Campaign: campaignID,
		Job:      jobID,
		State:    state.String(),
		Epoch:    o.cfg.Epoch,
	}
	if jerr != nil {
		rec.Error = jerr.Error()
	}
	_ = j.Append(rec)
}

// --- graceful drain ----------------------------------------------------

// DrainReport accounts for a graceful shutdown.
type DrainReport struct {
	// Completed counts jobs that were pending at drain start and reached
	// a journaled terminal state before the deadline.
	Completed int `json:"completed"`
	// Requeued counts jobs parked for replay: still queued, or cut off
	// by the deadline mid-run. Their submitted records carry no terminal
	// result, so a restarted orchestrator re-enqueues them.
	Requeued int `json:"requeued"`
}

// Drain gracefully shuts the orchestrator down: admission stops
// (Submit returns ErrDraining), queued jobs are parked for journal
// replay, and running jobs get until ctx expires to finish. Jobs still
// running at the deadline are cancelled without a terminal journal
// record — a restart re-runs them. No new warm build starts once the
// drain begins. Blocks until every worker and every running warm build
// has exited; the orchestrator accepts no work afterwards. Call once,
// before Close.
func (o *Orchestrator) Drain(ctx context.Context) DrainReport {
	o.draining.Store(true)
	o.shuttingDown.Store(true)

	o.mu.Lock()
	inflight := int(o.jobCounts[JobQueued] + o.jobCounts[JobRunning])
	o.mu.Unlock()

	o.waitIdle(ctx)
	o.stop()
	o.wg.Wait()
	o.waitWarm()

	// Workers are gone; every job state is final. Park the unfinished
	// ones for replay. The records are appended after c.mu is released:
	// a compaction holds the journal's lock while it reads job states.
	var parked []journal.Record
	for _, c := range o.snapshotCampaigns() {
		c.mu.Lock()
		for _, j := range c.jobs {
			if j.state == JobQueued || j.requeue {
				parked = append(parked, journal.Record{
					Type:     journal.TypeRequeue,
					Campaign: c.ID,
					Job:      j.ID,
					State:    j.state.String(),
				})
			}
		}
		c.mu.Unlock()
	}
	requeued := len(parked)
	if jl := o.cfg.Journal; jl != nil {
		for _, rec := range parked {
			_ = jl.Append(rec)
		}
		_ = jl.Sync()
	}
	return DrainReport{Completed: inflight - requeued, Requeued: requeued}
}

// waitIdle blocks until no job is running or ctx expires.
func (o *Orchestrator) waitIdle(ctx context.Context) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		o.mu.Lock()
		running := o.jobCounts[JobRunning]
		o.mu.Unlock()
		if running == 0 {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (o *Orchestrator) snapshotCampaigns() []*Campaign {
	o.mu.Lock()
	defer o.mu.Unlock()
	cs := make([]*Campaign, 0, len(o.campaigns))
	for _, c := range o.campaigns {
		cs = append(cs, c)
	}
	return cs
}

// --- compaction --------------------------------------------------------

// maybeCompact compacts the journal when it has grown past the
// configured threshold. Runs from a goroutine after a campaign
// finishes; the CAS keeps compactions from stacking.
func (o *Orchestrator) maybeCompact() {
	j := o.cfg.Journal
	if j == nil || j.Records() < o.cfg.CompactRecords {
		return
	}
	if !o.compacting.CompareAndSwap(false, true) {
		return
	}
	defer o.compacting.Store(false)
	_ = j.Compact(o.pendingRecords)
}

// CompactJournal rewrites the journal to just the submitted records of
// jobs that are not yet terminal, regardless of size. magusd calls it
// after a replay so recovered history does not accrete across restarts.
// The job states are read under the journal's lock: a job that finishes
// meanwhile has its result appended to the rewritten log, never to the
// old one the rewrite discards.
func (o *Orchestrator) CompactJournal() error {
	j := o.cfg.Journal
	if j == nil {
		return nil
	}
	if !o.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer o.compacting.Store(false)
	return j.Compact(o.pendingRecords)
}

// compactSnapshotHook, when set, runs right after a compaction's
// snapshot of the pending jobs and before the journal is rewritten.
var compactSnapshotHook func()

// pendingRecords snapshots the submitted records of every job a replay
// would need: queued, running, or parked for requeue. Compaction calls
// it under the journal's lock; it takes o.mu and each campaign's mu, so
// no journal append may happen while holding either.
func (o *Orchestrator) pendingRecords() []journal.Record {
	var live []journal.Record
	for _, c := range o.snapshotCampaigns() {
		c.mu.Lock()
		for _, j := range c.jobs {
			if j.state != JobQueued && j.state != JobRunning && !j.requeue {
				continue
			}
			spec, err := json.Marshal(j.Spec)
			if err != nil {
				continue
			}
			live = append(live, journal.Record{
				Type:     journal.TypeSubmitted,
				Campaign: c.ID,
				Job:      j.ID,
				Spec:     spec,
			})
		}
		c.mu.Unlock()
	}
	if compactSnapshotHook != nil {
		compactSnapshotHook()
	}
	return live
}

// --- crash recovery ----------------------------------------------------

// PendingJob is a journaled job that never reached a terminal state:
// the process died (or drained) while it was queued or running.
type PendingJob struct {
	// Campaign and Job are the identifiers from the previous process's
	// journal; Resubmit assigns fresh ones.
	Campaign string
	Job      int
	Spec     JobSpec
}

// ReplayJournal scans the journal at path and returns the jobs whose
// submitted record has no matching terminal result — the work lost at
// crash or drain time, in original submission order. Records that no
// longer decode to a valid spec are skipped: they cannot be run, and
// refusing to recover the rest over them would turn one bad record into
// total data loss.
func ReplayJournal(path string) ([]PendingJob, error) {
	type key struct {
		campaign string
		job      int
	}
	specs := make(map[key]json.RawMessage)
	var order []key
	err := journal.Replay(path, func(rec journal.Record) error {
		k := key{rec.Campaign, rec.Job}
		switch rec.Type {
		case journal.TypeSubmitted:
			if _, ok := specs[k]; !ok {
				order = append(order, k)
			}
			specs[k] = rec.Spec
		case journal.TypeResult:
			delete(specs, k)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pending []PendingJob
	for _, k := range order {
		raw, ok := specs[k]
		if !ok {
			continue
		}
		var sp JobSpec
		if err := json.Unmarshal(raw, &sp); err != nil {
			continue
		}
		if err := sp.Validate(); err != nil {
			continue
		}
		pending = append(pending, PendingJob{Campaign: k.campaign, Job: k.job, Spec: sp})
	}
	return pending, nil
}

// Resubmit re-enqueues recovered jobs, one new campaign per original
// campaign ID (order preserved). Returns the campaigns created; on a
// full queue the remainder is abandoned with the error. On success the
// journal is compacted: a fresh orchestrator reuses campaign IDs, so
// the dead process's records must not linger to collide with them on a
// later replay.
//
// With Config.Epoch set, Resubmit first verifies the token is still the
// journal's current epoch. Two orchestrators replaying the same journal
// is exactly the double-execution hazard the fencing targets: only the
// latest claimant may resubmit; the stale one is rejected with
// journal.ErrStaleEpoch and must discard its replayed pending set.
func (o *Orchestrator) Resubmit(pending []PendingJob) ([]*Campaign, error) {
	if err := o.verifyEpoch(); err != nil {
		return nil, fmt.Errorf("campaign: resubmit: %w", err)
	}
	groups := make(map[string][]JobSpec)
	var order []string
	for _, p := range pending {
		if _, ok := groups[p.Campaign]; !ok {
			order = append(order, p.Campaign)
		}
		groups[p.Campaign] = append(groups[p.Campaign], p.Spec)
	}
	var out []*Campaign
	for _, id := range order {
		c, err := o.Submit(groups[id])
		if err != nil {
			return out, fmt.Errorf("campaign: resubmit %s: %w", id, err)
		}
		out = append(out, c)
	}
	return out, o.CompactJournal()
}
