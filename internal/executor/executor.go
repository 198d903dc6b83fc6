package executor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"magus/internal/journal"
	"magus/internal/runbook"
	"magus/internal/simwindow"
)

// CrashPoint names a place in the protocol where a crash hook may kill
// the run. The three forward points bracket the commit record, which
// is exactly where the recovery semantics differ: before the push a
// resume simply redoes the step; between push and commit the step is
// in-doubt and recovery must ask the network; after the commit a resume
// re-verifies but never re-pushes. The two rollback points follow the
// halt record and a rollback commit, both of which ride on the next
// sync (see checkpoint), so a kill there loses them.
type CrashPoint string

const (
	CrashBeforePush          CrashPoint = "before-push"
	CrashBeforeCommit        CrashPoint = "before-commit"
	CrashAfterCommit         CrashPoint = "after-commit"
	CrashAfterHalt           CrashPoint = "after-halt"
	CrashAfterRollbackCommit CrashPoint = "after-rollback-commit"
)

// CrashHook is consulted at each crash point of each step. A non-nil
// return kills the run on the spot — the executor returns immediately
// without journaling anything further, exactly like a SIGKILL.
type CrashHook func(point CrashPoint, step int) error

// ErrKilled is returned (wrapped) when a crash hook fires. A killed
// run's journal is intact; building a new Executor over the same
// journal and network resumes it.
var ErrKilled = errors.New("executor: killed")

// Step states, in protocol order.
const (
	StepPending    = "pending"
	StepPushing    = "pushing"
	StepCommitted  = "committed"
	StepVerified   = "verified"
	StepFailed     = "failed"
	StepRolledBack = "rolled-back"
)

// Run states.
const (
	RunPending    = "pending"
	RunRunning    = "running"
	RunDone       = "done"
	RunRolledBack = "rolled-back"
	RunKilled     = "killed"
	RunFailed     = "failed"
)

// Options tune one executor run. The zero value gets conservative
// defaults from applyDefaults.
type Options struct {
	// RunID namespaces this run's records in the journal (Record.
	// Campaign). Required when Journal is set.
	RunID string
	// Journal, when non-nil, receives a checkpoint record per state
	// transition, synced before every push and at the run's outcome; a
	// crashed run resumes from it. Nil runs best-effort with no
	// recovery (campaign jobs, benchmarks).
	Journal *journal.Journal
	// StepDeadline bounds one step's push-plus-retries (default 30s).
	StepDeadline time.Duration
	// Retries is how many times a failed push is retried before the
	// run halts (default 3; the first attempt is not a retry).
	Retries int
	// RetryBackoff is the initial retry delay; it doubles per retry
	// with ±50% jitter (default 100ms, capped at MaxBackoff).
	RetryBackoff time.Duration
	// MaxBackoff caps the growing retry delay (default 5s).
	MaxBackoff time.Duration
	// Seed drives the retry jitter. Equal seeds and equal fault
	// sequences reproduce a run's timing decisions exactly.
	Seed int64
	// VerifySamples is how many at-or-above-floor KPI samples clear a
	// step (default 3).
	VerifySamples int
	// GraceSamples is the watchdog's grace window: more than this many
	// consecutive below-floor samples is a breach (default
	// simwindow.FloorStreak-1).
	GraceSamples int
	// CrashHook, when non-nil, is the chaos layer's kill switch.
	CrashHook CrashHook
	// Counters, when non-nil, aggregates across runs (the manager
	// shares one set; /healthz reports it).
	Counters *Counters
}

// maxSampleLoss bounds lost KPI reports per step; beyond it the step
// cannot be verified and the run halts.
const maxSampleLoss = 5

func (o *Options) applyDefaults() {
	if o.StepDeadline <= 0 {
		o.StepDeadline = 30 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.VerifySamples <= 0 {
		o.VerifySamples = 3
	}
	if o.GraceSamples <= 0 {
		o.GraceSamples = simwindow.FloorStreak - 1
	}
	if o.Counters == nil {
		o.Counters = &Counters{}
	}
}

// StepStatus is one step's live progress.
type StepStatus struct {
	Index    int    `json:"index"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
	// Utility and Floor are the step's last verification sample.
	Utility float64 `json:"utility,omitempty"`
	Floor   float64 `json:"floor,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// Status is a run's progress snapshot, also the wire shape of the
// /execute status endpoint and campaign Result.Exec.
type Status struct {
	State string       `json:"state"`
	Steps []StepStatus `json:"steps"`
	// Halted reports the watchdog or retry policy stopping the run;
	// HaltStep and HaltReason say where and why.
	Halted     bool   `json:"halted,omitempty"`
	HaltStep   int    `json:"halt_step,omitempty"`
	HaltReason string `json:"halt_reason,omitempty"`
	// RolledBack reports the rollback sequence fully applied.
	RolledBack bool `json:"rolled_back,omitempty"`
	// Resumed reports the run picked up prior progress from its journal.
	Resumed bool `json:"resumed,omitempty"`
	// Retries counts push retries across all steps.
	Retries int `json:"retries,omitempty"`
	// Samples and SamplesLost count KPI observations and lost reports.
	Samples     int `json:"samples,omitempty"`
	SamplesLost int `json:"samples_lost,omitempty"`
	// SamplesBelowFloor counts observations under the f(C_after) floor
	// — the run's service-disruption exposure.
	SamplesBelowFloor int `json:"samples_below_floor,omitempty"`
	// FinalUtility and FinalFloor are the last sample taken.
	FinalUtility float64 `json:"final_utility,omitempty"`
	FinalFloor   float64 `json:"final_floor,omitempty"`
}

// Done reports whether the run reached a terminal state.
func (s *Status) Done() bool {
	switch s.State {
	case RunDone, RunRolledBack, RunKilled, RunFailed:
		return true
	}
	return false
}

// Executor runs one runbook through the guarded protocol. Build with
// New; Run may be called once. Status is safe to call concurrently
// with Run.
type Executor struct {
	net  Network
	rb   *runbook.Runbook
	opts Options
	rng  *rand.Rand

	mu     sync.Mutex
	status Status
}

// New prepares an executor for rb against net.
func New(net Network, rb *runbook.Runbook, opts Options) (*Executor, error) {
	if net == nil || rb == nil {
		return nil, errors.New("executor: nil network or runbook")
	}
	if len(rb.Steps) == 0 {
		return nil, errors.New("executor: runbook has no steps")
	}
	if opts.Journal != nil && opts.RunID == "" {
		return nil, errors.New("executor: journaled run needs a RunID")
	}
	opts.applyDefaults()
	e := &Executor{
		net:  net,
		rb:   rb,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	e.status.State = RunPending
	for _, st := range rb.Steps {
		e.status.Steps = append(e.status.Steps, StepStatus{
			Index: st.Index, Kind: string(st.Kind), State: StepPending,
		})
	}
	return e, nil
}

// Status returns a snapshot of the run's progress.
func (e *Executor) Status() *Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.status
	out.Steps = append([]StepStatus(nil), e.status.Steps...)
	return &out
}

// haltError carries a guard decision (breach, retry exhaustion,
// preflight failure) out of the per-step protocol. It is a domain
// outcome, not a run error: Run answers it with rollback.
type haltError struct {
	step   int
	reason string
}

func (h haltError) Error() string {
	return fmt.Sprintf("step %d: %s", h.step, h.reason)
}

// progress is what a journal replay knows about a previous incarnation
// of this run.
type progress struct {
	intent      map[int]bool
	committed   map[int]bool
	verified    map[int]bool
	rbIntent    map[int]bool
	rbCommitted map[int]bool
	halted      bool
	haltStep    int
	haltReason  string
	rolledBack  bool
	done        bool
	any         bool
}

func newProgress() *progress {
	return &progress{
		intent:      map[int]bool{},
		committed:   map[int]bool{},
		verified:    map[int]bool{},
		rbIntent:    map[int]bool{},
		rbCommitted: map[int]bool{},
	}
}

// replay reconstructs prior progress from the journal (nil journal →
// empty progress).
func (e *Executor) replay() (*progress, error) {
	p := newProgress()
	if e.opts.Journal == nil {
		return p, nil
	}
	// Flush anything buffered so the file read sees every record.
	if err := e.opts.Journal.Sync(); err != nil {
		return nil, err
	}
	err := journal.Replay(e.opts.Journal.Path(), func(rec journal.Record) error {
		if rec.Campaign != e.opts.RunID {
			return nil
		}
		p.any = true
		switch rec.Type {
		case journal.TypeExecStep:
			p.intent[rec.Job] = true
		case journal.TypeExecCommit:
			p.committed[rec.Job] = true
		case journal.TypeExecVerify:
			p.verified[rec.Job] = true
		case journal.TypeExecHalt:
			p.halted = true
			p.haltStep = rec.Job
			p.haltReason = rec.State
		case journal.TypeExecRollbackStep:
			p.rbIntent[rec.Job] = true
		case journal.TypeExecRollbackCommit:
			p.rbCommitted[rec.Job] = true
		case journal.TypeExecRolledBack:
			p.rolledBack = true
		case journal.TypeExecDone:
			p.done = true
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("executor: replay: %w", err)
	}
	return p, nil
}

// checkpoint journals one state transition. Journal failures are
// returned: a recovery log that cannot record is worse than stopping,
// because continuing would silently forfeit the resume guarantee.
//
// Only the records an action depends on are synced (syncedRecord); the
// rest ride on the next sync, which makes every record before it
// durable too. Losing one of those in a crash costs a resume nothing
// it cannot redo: a lost commit leaves its step in doubt (asked of the
// network), a lost verify re-verifies, and a lost halt is decided again
// from fresh samples.
func (e *Executor) checkpoint(typ string, step int, state string, spec json.RawMessage) error {
	if e.opts.Journal == nil {
		return nil
	}
	rec := journal.Record{
		Type:     typ,
		Campaign: e.opts.RunID,
		Job:      step,
		State:    state,
		Spec:     spec,
	}
	err := e.opts.Journal.Append(rec)
	if err == nil {
		e.opts.Counters.JournalRecords.Add(1)
		if syncedRecord(typ) {
			if err = e.opts.Journal.Sync(); err == nil {
				e.opts.Counters.JournalSyncs.Add(1)
			}
		}
	}
	if err != nil {
		e.opts.Counters.JournalErrors.Add(1)
		return fmt.Errorf("executor: checkpoint %s: %w", typ, err)
	}
	return nil
}

// syncedRecord reports whether a record must be durable before the run
// goes on: an intent before the push it announces, and the run's
// outcome before it is reported.
func syncedRecord(typ string) bool {
	switch typ {
	case journal.TypeExecStep, journal.TypeExecRollbackStep,
		journal.TypeExecDone, journal.TypeExecRolledBack:
		return true
	}
	return false
}

// crash fires the chaos hook at a protocol point. A non-nil hook error
// is the simulated SIGKILL.
func (e *Executor) crash(p CrashPoint, step int) error {
	if e.opts.CrashHook == nil {
		return nil
	}
	if err := e.opts.CrashHook(p, step); err != nil {
		if errors.Is(err, ErrKilled) {
			return fmt.Errorf("%w at %s of step %d", ErrKilled, p, step)
		}
		return fmt.Errorf("%w at %s of step %d: %v", ErrKilled, p, step, err)
	}
	return nil
}

func (e *Executor) setStep(index int, f func(*StepStatus)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.status.Steps {
		if e.status.Steps[i].Index == index {
			f(&e.status.Steps[i])
			return
		}
	}
}

func (e *Executor) setRun(f func(*Status)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f(&e.status)
}

// Run executes the runbook. It returns a non-nil Status alongside any
// error. The error is nil both on clean completion AND on a
// halted-and-fully-rolled-back run — a halt answered by a complete
// rollback is the guard doing its job, reported via Status.Halted; the
// caller decides how loudly to surface it (magusctl exits 2). Errors
// mean the run could not reach either safe state: killed by a crash
// hook, cancelled, a checkpoint write failed, or — worst — a rollback
// push failed.
func (e *Executor) Run(ctx context.Context) (*Status, error) {
	prog, err := e.replay()
	if err != nil {
		e.setRun(func(s *Status) { s.State = RunFailed })
		return e.Status(), err
	}
	e.opts.Counters.Runs.Add(1)
	resumed := prog.any
	if resumed {
		e.opts.Counters.Resumed.Add(1)
	}
	e.setRun(func(s *Status) {
		s.State = RunRunning
		s.Resumed = resumed
	})

	// A previous incarnation already finished: report, don't re-run.
	if prog.done || prog.rolledBack {
		e.restoreFinished(prog)
		return e.Status(), nil
	}

	var halt *haltError
	if prog.halted {
		// Crashed mid-rollback: go straight back to unwinding.
		halt = &haltError{step: prog.haltStep, reason: prog.haltReason}
	} else {
		for _, st := range e.rb.Steps {
			err := e.runStep(ctx, st, prog)
			if err == nil {
				continue
			}
			var he haltError
			if errors.As(err, &he) {
				e.opts.Counters.Halted.Add(1)
				halt = &he
				break
			}
			e.finishErr(err)
			return e.Status(), err
		}
	}

	if halt == nil {
		if err := e.checkpoint(journal.TypeExecDone, 0, RunDone, nil); err != nil {
			e.finishErr(err)
			return e.Status(), err
		}
		e.opts.Counters.Completed.Add(1)
		e.setRun(func(s *Status) { s.State = RunDone })
		return e.Status(), nil
	}

	e.setRun(func(s *Status) {
		s.Halted = true
		s.HaltStep = halt.step
		s.HaltReason = halt.reason
	})
	e.setStep(halt.step, func(ss *StepStatus) {
		if ss.State != StepCommitted && ss.State != StepVerified {
			ss.State = StepFailed
		}
		ss.Error = halt.reason
	})
	if err := e.rollback(ctx, prog, halt); err != nil {
		e.finishErr(err)
		return e.Status(), err
	}
	e.opts.Counters.RolledBack.Add(1)
	e.setRun(func(s *Status) {
		s.State = RunRolledBack
		s.RolledBack = true
	})
	return e.Status(), nil
}

// finishErr classifies a run-terminating error into the status.
func (e *Executor) finishErr(err error) {
	state := RunFailed
	if errors.Is(err, ErrKilled) {
		state = RunKilled
		e.opts.Counters.Killed.Add(1)
	}
	e.setRun(func(s *Status) { s.State = state })
}

// restoreFinished fills step states for a run whose journal already
// holds a terminal record.
func (e *Executor) restoreFinished(prog *progress) {
	e.setRun(func(s *Status) {
		if prog.rolledBack {
			s.State = RunRolledBack
			s.RolledBack = true
			s.Halted = prog.halted
			s.HaltStep = prog.haltStep
			s.HaltReason = prog.haltReason
		} else {
			s.State = RunDone
		}
		for i := range s.Steps {
			idx := s.Steps[i].Index
			switch {
			case prog.rbCommitted[idx]:
				s.Steps[i].State = StepRolledBack
			case prog.verified[idx]:
				s.Steps[i].State = StepVerified
			case prog.committed[idx]:
				s.Steps[i].State = StepCommitted
			}
		}
	})
}

// runStep takes one forward step through intent → push → commit →
// verify, honoring any progress a previous incarnation journaled.
func (e *Executor) runStep(ctx context.Context, st runbook.Step, prog *progress) error {
	idx := st.Index
	if prog.verified[idx] {
		e.setStep(idx, func(ss *StepStatus) { ss.State = StepVerified })
		return nil
	}
	if prog.committed[idx] {
		// Crash landed after the commit record: the push is known
		// durable, only the verification is outstanding.
		e.setStep(idx, func(ss *StepStatus) { ss.State = StepCommitted })
		return e.verifyStep(ctx, st)
	}

	needPush := true
	if prog.intent[idx] {
		// In-doubt: intent journaled, commit absent. Ask the network.
		applied, err := e.net.Applied(st)
		if err != nil {
			return fmt.Errorf("executor: step %d: resolve in-doubt: %w", idx, err)
		}
		needPush = !applied
	} else {
		spec, err := json.Marshal(st.Changes)
		if err != nil {
			return fmt.Errorf("executor: step %d: encode changes: %w", idx, err)
		}
		if err := e.checkpoint(journal.TypeExecStep, idx, string(st.Kind), spec); err != nil {
			return err
		}
	}

	if err := e.crash(CrashBeforePush, idx); err != nil {
		return err
	}

	if needPush {
		if err := e.net.Preflight(st); err != nil {
			return haltError{step: idx, reason: fmt.Sprintf("preflight: %v", err)}
		}
		e.setStep(idx, func(ss *StepStatus) { ss.State = StepPushing })
		if err := e.push(ctx, st); err != nil {
			return err
		}
	}

	if err := e.crash(CrashBeforeCommit, idx); err != nil {
		return err
	}
	if err := e.checkpoint(journal.TypeExecCommit, idx, "", nil); err != nil {
		return err
	}
	e.opts.Counters.StepsCommitted.Add(1)
	e.setStep(idx, func(ss *StepStatus) { ss.State = StepCommitted })
	// From here on the step is durably committed; mark it for rollback
	// accounting even if verification halts the run.
	prog.committed[idx] = true

	if err := e.crash(CrashAfterCommit, idx); err != nil {
		return err
	}
	return e.verifyStep(ctx, st)
}

// push delivers one step with deadline-bounded, jittered-backoff
// retries. Exhaustion and deadline are halt decisions; cancellation is
// a run error.
func (e *Executor) push(ctx context.Context, st runbook.Step) error {
	idx := st.Index
	sctx, cancel := context.WithTimeout(ctx, e.opts.StepDeadline)
	defer cancel()
	backoff := e.opts.RetryBackoff
	var lastErr error
	attempt := 0
	for attempt = 1; attempt <= e.opts.Retries+1; attempt++ {
		e.setStep(idx, func(ss *StepStatus) { ss.Attempts = attempt })
		lastErr = e.net.Push(sctx, st)
		if lastErr == nil {
			return nil
		}
		if errors.Is(lastErr, ErrKilled) {
			return lastErr
		}
		if ctx.Err() != nil {
			return fmt.Errorf("executor: step %d push: %w", idx, ctx.Err())
		}
		if sctx.Err() != nil {
			break // step deadline spent
		}
		if attempt > e.opts.Retries {
			break
		}
		e.opts.Counters.PushRetries.Add(1)
		e.setRun(func(s *Status) { s.Retries++ })
		wait := time.Duration(float64(backoff) * (0.5 + e.rng.Float64()))
		select {
		case <-sctx.Done():
			if ctx.Err() != nil {
				return fmt.Errorf("executor: step %d push: %w", idx, ctx.Err())
			}
			return haltError{step: idx, reason: fmt.Sprintf("push deadline %v exceeded after %d attempts: %v", e.opts.StepDeadline, attempt, lastErr)}
		case <-time.After(wait):
		}
		backoff *= 2
		if backoff > e.opts.MaxBackoff {
			backoff = e.opts.MaxBackoff
		}
	}
	return haltError{step: idx, reason: fmt.Sprintf("push failed after %d attempts: %v", attempt, lastErr)}
}

// verifyStep is the KPI watchdog: sample until VerifySamples
// observations at or above the floor clear the step, halting on a
// sustained breach (more than GraceSamples consecutive below-floor
// samples; lost reports neither extend nor reset the streak) or on an
// unverifiable step (too many lost reports).
func (e *Executor) verifyStep(ctx context.Context, st runbook.Step) error {
	idx := st.Index
	wd := simwindow.Watchdog{Limit: e.opts.GraceSamples + 1}
	good, lost := 0, 0
	budget := e.opts.VerifySamples + e.opts.GraceSamples + maxSampleLoss
	for taken := 0; taken < budget; taken++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("executor: step %d verify: %w", idx, err)
		}
		sample, err := e.net.Observe(idx)
		if err != nil {
			lost++
			e.setRun(func(s *Status) { s.SamplesLost++ })
			if lost > maxSampleLoss {
				return haltError{step: idx, reason: fmt.Sprintf("unverifiable: %d KPI reports lost: %v", lost, err)}
			}
			continue
		}
		e.setRun(func(s *Status) {
			s.Samples++
			s.FinalUtility = sample.Utility
			s.FinalFloor = sample.Floor
		})
		e.setStep(idx, func(ss *StepStatus) {
			ss.Utility = sample.Utility
			ss.Floor = sample.Floor
		})
		if below, breached := wd.Observe(sample.Utility, sample.Floor); below {
			e.setRun(func(s *Status) { s.SamplesBelowFloor++ })
			if breached {
				e.opts.Counters.FloorBreaches.Add(1)
				return haltError{step: idx, reason: fmt.Sprintf(
					"utility %.2f below floor %.2f for %d consecutive samples (grace %d)",
					sample.Utility, sample.Floor, wd.Streak, e.opts.GraceSamples)}
			}
			continue
		}
		good++
		if good >= e.opts.VerifySamples {
			if err := e.checkpoint(journal.TypeExecVerify, idx, "", nil); err != nil {
				return err
			}
			e.opts.Counters.StepsVerified.Add(1)
			e.setStep(idx, func(ss *StepStatus) { ss.State = StepVerified })
			return nil
		}
	}
	return haltError{step: idx, reason: fmt.Sprintf(
		"verification inconclusive after %d observations (%d good, %d below floor, %d lost)",
		budget, good, wd.Streak, lost)}
}

// rollback unwinds every committed step in reverse order, with the same
// intent/commit journaling and in-doubt recovery as the forward path.
// Rollback pushes retry but a final failure here is a hard error — the
// network is left in a known-bad intermediate state and says so.
func (e *Executor) rollback(ctx context.Context, prog *progress, halt *haltError) error {
	if !prog.halted {
		if err := e.checkpoint(journal.TypeExecHalt, halt.step, halt.reason, nil); err != nil {
			return err
		}
		if err := e.crash(CrashAfterHalt, halt.step); err != nil {
			return err
		}
	}
	for i := len(e.rb.Steps) - 1; i >= 0; i-- {
		st := e.rb.Steps[i]
		idx := st.Index
		if !prog.committed[idx] {
			continue
		}
		if prog.rbCommitted[idx] {
			e.setStep(idx, func(ss *StepStatus) { ss.State = StepRolledBack })
			continue
		}
		// The rollback incarnation keeps the step's index; its changes
		// are runbook.BuildRollback's for the same step.
		rbStep := runbook.Step{
			Index:   idx,
			Kind:    runbook.KindRollback,
			Changes: st.Inverse(),
			Note:    fmt.Sprintf("rollback of step %d", idx),
		}
		needPush := true
		if prog.rbIntent[idx] {
			applied, err := e.net.Applied(rbStep)
			if err != nil {
				return fmt.Errorf("executor: rollback step %d: resolve in-doubt: %w", idx, err)
			}
			needPush = !applied
		} else {
			if err := e.checkpoint(journal.TypeExecRollbackStep, idx, "", nil); err != nil {
				return err
			}
		}
		if needPush {
			if err := e.push(ctx, rbStep); err != nil {
				var he haltError
				if errors.As(err, &he) {
					return fmt.Errorf("executor: rollback of step %d failed, network left mid-rollback: %s", idx, he.reason)
				}
				return err
			}
		}
		if err := e.checkpoint(journal.TypeExecRollbackCommit, idx, "", nil); err != nil {
			return err
		}
		e.setStep(idx, func(ss *StepStatus) { ss.State = StepRolledBack })
		if err := e.crash(CrashAfterRollbackCommit, idx); err != nil {
			return err
		}
	}
	return e.checkpoint(journal.TypeExecRolledBack, halt.step, halt.reason, nil)
}
