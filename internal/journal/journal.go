// Package journal is an append-only JSONL write-ahead log for campaign
// job lifecycle events. The orchestrator appends a record when a job is
// submitted, each time an attempt starts, and when the job reaches a
// terminal state; after a crash or a drain deadline, replaying the file
// identifies every job that was accepted but never finished, so a
// restarted magusd re-enqueues exactly the lost work (see
// campaign.ReplayJournal).
//
// Durability is batched: Append buffers records and the file is fsynced
// once per SyncEvery records or SyncInterval, whichever comes first, so
// a submit burst pays one disk flush rather than one per job. Sync
// forces the batch out — callers flush explicitly at admission points
// (an accepted campaign must survive a crash the moment the client sees
// 202).
//
// The log is compacted by atomically rewriting it with only the records
// that still matter (the pending jobs): Compact writes a fresh file
// beside the log, fsyncs it, and renames it into place, so a crash
// during compaction leaves either the old or the new log, never a torn
// mixture.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Record types, in lifecycle order.
const (
	// TypeSubmitted records one accepted job and carries its spec.
	TypeSubmitted = "submitted"
	// TypeAttempt records the start of one execution attempt.
	TypeAttempt = "attempt"
	// TypeResult records a job's terminal state (done/failed/cancelled).
	TypeResult = "result"
	// TypeRequeue marks a job deliberately abandoned by a draining
	// process; like the absence of a result, it means "re-enqueue on
	// restart", but makes the drain visible in the log.
	TypeRequeue = "requeue"
	// TypeEpoch records a fencing-epoch claim (see Journal.ClaimEpoch):
	// the process appending it took ownership of the journal's pending
	// work away from every earlier claimant.
	TypeEpoch = "epoch"
	// TypeLease records a fleet coordinator granting (or re-granting) a
	// market's job lease to a worker node; Epoch is the lease's fencing
	// token, bumped on every re-placement so results from a superseded
	// lease are rejected.
	TypeLease = "lease"
)

// Executor record types (see internal/executor): per-step checkpoints
// of a guarded runbook run, in protocol order. Campaign carries the run
// ID, Job the step's 1-based index. The intent/commit pair brackets the
// push so recovery can resolve the in-doubt window (intent without
// commit → ask the network whether the push landed) and never
// double-push.
const (
	// TypeExecStep declares intent to push a step (Spec = its changes).
	TypeExecStep = "exec-step"
	// TypeExecCommit records the push acknowledged: the changes are live.
	TypeExecCommit = "exec-commit"
	// TypeExecVerify records the KPI watchdog clearing the step.
	TypeExecVerify = "exec-verified"
	// TypeExecHalt records the run halting (State = reason, Job = step).
	TypeExecHalt = "exec-halted"
	// TypeExecRollbackStep declares intent to roll back a committed step.
	TypeExecRollbackStep = "exec-rollback-step"
	// TypeExecRollbackCommit records that step's rollback push landing.
	TypeExecRollbackCommit = "exec-rollback-commit"
	// TypeExecRolledBack records the whole rollback sequence completing.
	TypeExecRolledBack = "exec-rolled-back"
	// TypeExecDone records a run completing cleanly (all steps verified).
	TypeExecDone = "exec-done"
)

// Record is one JSONL line of the log.
type Record struct {
	// Seq is the monotonically increasing record number, assigned by
	// Append.
	Seq int64 `json:"seq"`
	// Time is the wall-clock append time.
	Time time.Time `json:"time"`
	// Type is one of the Type* constants.
	Type string `json:"type"`
	// Campaign and Job identify the job the record is about.
	Campaign string `json:"campaign,omitempty"`
	Job      int    `json:"job"`
	// Attempt is the 1-based attempt number (attempt records).
	Attempt int `json:"attempt,omitempty"`
	// State and Error describe the terminal outcome (result records).
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Epoch is the fencing token under which the record was written
	// (epoch and lease records; job records of a fenced orchestrator).
	Epoch int64 `json:"epoch,omitempty"`
	// Market and Node identify a fleet lease's market and owning worker
	// (lease records).
	Market string `json:"market,omitempty"`
	Node   string `json:"node,omitempty"`
	// Spec is the job's serialized spec (submitted records), opaque to
	// this package so it carries no dependency on the campaign types.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// Options tune a journal's durability batching. The zero value selects
// defaults.
type Options struct {
	// SyncEvery fsyncs after this many unsynced appends (default 64).
	SyncEvery int
	// SyncInterval bounds how long an appended record may sit unsynced
	// (default 100ms).
	SyncInterval time.Duration
}

func (o *Options) applyDefaults() {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
}

// Journal is an open write-ahead log. Safe for concurrent use.
type Journal struct {
	opts Options
	path string

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	seq      int64
	unsynced int
	records  int64 // total records in the file (replayed + appended)
	timer    *time.Timer
	closed   bool

	// appendErrs counts failed writes/flushes/fsyncs over the journal's
	// lifetime. A failed append is also returned to the caller, but the
	// background sync timer has no caller — the counter is how a dying
	// disk becomes visible on /healthz.
	appendErrs atomic.Int64
}

// AppendErrors returns how many append/flush/fsync operations have
// failed since the journal was opened.
func (j *Journal) AppendErrors() int64 { return j.appendErrs.Load() }

// Open opens (creating if needed) the journal at path for appending.
// The returned journal's sequence numbers continue after the highest
// already in the file. A torn final line left by a crash mid-append is
// truncated away — the record it belonged to was never acknowledged —
// so new appends always start on a clean line boundary.
func Open(path string, opts Options) (*Journal, error) {
	opts.applyDefaults()
	lastSeq, count, valid, err := scan(path, nil)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if info, err := f.Stat(); err == nil && info.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	return &Journal{
		opts:    opts,
		path:    path,
		f:       f,
		w:       bufio.NewWriter(f),
		seq:     lastSeq,
		records: count,
	}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string {
	return j.path
}

// Append writes one record (assigning Seq and Time) and schedules a
// batched fsync per the journal's options.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	j.seq++
	rec.Seq = j.seq
	rec.Time = time.Now().UTC()
	if err := j.writeLocked(rec); err != nil {
		return err
	}
	j.records++
	j.unsynced++
	if j.unsynced >= j.opts.SyncEvery {
		return j.syncLocked()
	}
	if j.timer == nil {
		j.timer = time.AfterFunc(j.opts.SyncInterval, func() {
			j.mu.Lock()
			defer j.mu.Unlock()
			if !j.closed {
				_ = j.syncLocked()
			}
		})
	}
	return nil
}

func (j *Journal) writeLocked(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encode: %w", err)
	}
	if _, err := j.w.Write(line); err != nil {
		j.appendErrs.Add(1)
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.w.WriteByte('\n'); err != nil {
		j.appendErrs.Add(1)
		return fmt.Errorf("journal: write: %w", err)
	}
	return nil
}

// syncLocked flushes the buffer and fsyncs the file.
func (j *Journal) syncLocked() error {
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	if j.unsynced == 0 {
		return nil
	}
	j.unsynced = 0
	if err := j.w.Flush(); err != nil {
		j.appendErrs.Add(1)
		return fmt.Errorf("journal: flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.appendErrs.Add(1)
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// Sync forces every appended record to stable storage before returning.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	return j.syncLocked()
}

// Records returns the number of records currently in the file (including
// those present when it was opened). Callers use it to decide when a
// compaction is worthwhile.
func (j *Journal) Records() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Compact atomically replaces the log's contents with the records live
// returns (typically the submitted records of still-pending jobs): they
// are written to a temporary file, fsynced, and renamed over the log.
// live runs under the journal's lock, so no append can fall between the
// snapshot and the rewrite: a record appended concurrently either
// happened before the snapshot (which then reflects it) or waits and
// lands in the new log. live must not call back into the journal.
// Sequence numbering continues from the pre-compaction counter so
// replay order stays unambiguous.
func (j *Journal) Compact(live func() []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	// Flush anything buffered so a failed compaction leaves a complete
	// old log behind.
	if err := j.syncLocked(); err != nil {
		return err
	}
	recs := live()

	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	w := bufio.NewWriter(f)
	count := int64(0)
	for _, rec := range recs {
		j.seq++
		rec.Seq = j.seq
		if rec.Time.IsZero() {
			rec.Time = time.Now().UTC()
		}
		line, err := json.Marshal(rec)
		if err == nil {
			_, err = w.Write(line)
		}
		if err == nil {
			err = w.WriteByte('\n')
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("journal: compact: %w", err)
		}
		count++
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compact: %w", err)
	}
	// Re-open the (new) file for appending; also fsync the directory so
	// the rename itself is durable.
	j.w.Reset(io.Discard)
	j.f.Close()
	f, err = os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.closed = true
		return fmt.Errorf("journal: compact: reopen: %w", err)
	}
	j.f = f
	j.w.Reset(f)
	j.records = count
	syncDir(filepath.Dir(j.path))
	return nil
}

// Close flushes, fsyncs and closes the log. The journal accepts no
// appends afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	err := j.syncLocked()
	j.closed = true
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir best-effort fsyncs a directory (rename durability).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}

// Replay streams every record of the log at path through fn in file
// order. A torn final line — the signature of a crash mid-append — is
// tolerated and ignored; corruption anywhere else is an error. A
// missing file replays zero records.
func Replay(path string, fn func(Record) error) error {
	_, _, _, err := scan(path, fn)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// scan reads the log, reporting the highest sequence number, the record
// count, and the byte offset just past the last valid line, invoking fn
// (when non-nil) per record.
func scan(path string, fn func(Record) error) (lastSeq, count, valid int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var pendingErr error
	var offset int64
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		offset += int64(len(raw)) + 1
		if len(raw) == 0 {
			valid = offset
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			// Remember the defect: fatal unless it turns out to be the
			// final line (a torn tail from a crash mid-write).
			pendingErr = fmt.Errorf("journal: %s line %d: %w", path, line, err)
			continue
		}
		if pendingErr != nil {
			return lastSeq, count, valid, pendingErr
		}
		valid = offset
		if rec.Seq > lastSeq {
			lastSeq = rec.Seq
		}
		count++
		if fn != nil {
			if err := fn(rec); err != nil {
				return lastSeq, count, valid, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return lastSeq, count, valid, fmt.Errorf("journal: %s: %w", path, err)
	}
	return lastSeq, count, valid, nil
}
