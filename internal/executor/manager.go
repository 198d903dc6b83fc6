package executor

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"magus/internal/journal"
	"magus/internal/runbook"
)

// Counters aggregates executor activity across runs; the HTTP layer
// shares one set per process and reports it on /healthz.
type Counters struct {
	Runs           atomic.Int64
	Completed      atomic.Int64
	Halted         atomic.Int64
	RolledBack     atomic.Int64
	Resumed        atomic.Int64
	Killed         atomic.Int64
	StepsCommitted atomic.Int64
	StepsVerified  atomic.Int64
	PushRetries    atomic.Int64
	FloorBreaches  atomic.Int64
	JournalErrors  atomic.Int64
	// JournalRecords and JournalSyncs count checkpoint records appended
	// and the fsyncs checkpoints forced; their ratio is records per
	// fsync.
	JournalRecords atomic.Int64
	JournalSyncs   atomic.Int64
}

// CountersSnapshot is the JSON shape of Counters.
type CountersSnapshot struct {
	Runs           int64 `json:"runs"`
	Completed      int64 `json:"completed"`
	Halted         int64 `json:"halted"`
	RolledBack     int64 `json:"rolled_back"`
	Resumed        int64 `json:"resumed"`
	Killed         int64 `json:"killed"`
	StepsCommitted int64 `json:"steps_committed"`
	StepsVerified  int64 `json:"steps_verified"`
	PushRetries    int64 `json:"push_retries"`
	FloorBreaches  int64 `json:"floor_breaches"`
	JournalErrors  int64 `json:"journal_errors"`
	JournalRecords int64 `json:"journal_records"`
	JournalSyncs   int64 `json:"journal_syncs"`
}

// Snapshot reads every counter once.
func (c *Counters) Snapshot() CountersSnapshot {
	return CountersSnapshot{
		Runs:           c.Runs.Load(),
		Completed:      c.Completed.Load(),
		Halted:         c.Halted.Load(),
		RolledBack:     c.RolledBack.Load(),
		Resumed:        c.Resumed.Load(),
		Killed:         c.Killed.Load(),
		StepsCommitted: c.StepsCommitted.Load(),
		StepsVerified:  c.StepsVerified.Load(),
		PushRetries:    c.PushRetries.Load(),
		FloorBreaches:  c.FloorBreaches.Load(),
		JournalErrors:  c.JournalErrors.Load(),
		JournalRecords: c.JournalRecords.Load(),
		JournalSyncs:   c.JournalSyncs.Load(),
	}
}

// Run is one managed executor run.
type Run struct {
	ID string

	ex   *Executor
	done chan struct{}

	mu  sync.Mutex
	err error
	fin *Status
}

// Status returns the run's live (or final) progress.
func (r *Run) Status() *Status {
	r.mu.Lock()
	fin := r.fin
	r.mu.Unlock()
	if fin != nil {
		return fin
	}
	return r.ex.Status()
}

// Done is closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Err returns the run error, valid after Done is closed.
func (r *Run) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Finished reports whether the run has reached a terminal state.
func (r *Run) Finished() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Manager owns the asynchronous executor runs behind POST /execute:
// it assigns run IDs, gives each run its own journal file under dir
// (so a run's checkpoints survive the process and never collide with
// the campaign journal's compaction), and serves live progress.
type Manager struct {
	dir      string
	counters *Counters

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	nextID int
	runs   map[string]*Run
}

// NewManager builds a manager journaling runs under dir; an empty dir
// runs without journals (no crash recovery, still guarded). IDs start
// above any journal already in dir, so a restarted process never
// appends a new run's records to a dead run's file — the old journals
// stay untouched for postmortem replay.
func NewManager(dir string) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		dir:      dir,
		counters: &Counters{},
		ctx:      ctx,
		cancel:   cancel,
		nextID:   maxRunID(dir),
		runs:     map[string]*Run{},
	}
}

// maxRunID scans dir for x<N>.wal journals left by earlier processes
// and returns the highest N (0 when dir is empty or unreadable).
func maxRunID(dir string) int {
	if dir == "" {
		return 0
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	max := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "x") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "x"), ".wal"))
		if err == nil && n > max {
			max = n
		}
	}
	return max
}

// Counters returns the manager's shared counter set.
func (m *Manager) Counters() *Counters { return m.counters }

// Active returns how many runs have not finished.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, r := range m.runs {
		if !r.Finished() {
			n++
		}
	}
	return n
}

// Start launches rb against net in a goroutine and returns immediately.
// opts.RunID, Journal and Counters are owned by the manager and
// overwritten.
func (m *Manager) Start(net Network, rb *runbook.Runbook, opts Options) (*Run, error) {
	if err := m.ctx.Err(); err != nil {
		return nil, errors.New("executor: manager closed")
	}
	m.mu.Lock()
	m.nextID++
	id := fmt.Sprintf("x%d", m.nextID)
	m.mu.Unlock()

	opts.RunID = id
	opts.Counters = m.counters
	var jr *journal.Journal
	if m.dir != "" {
		if err := os.MkdirAll(m.dir, 0o755); err != nil {
			return nil, fmt.Errorf("executor: run dir: %w", err)
		}
		var err error
		jr, err = journal.Open(filepath.Join(m.dir, id+".wal"), journal.Options{})
		if err != nil {
			return nil, fmt.Errorf("executor: run journal: %w", err)
		}
	}
	opts.Journal = jr

	ex, err := New(net, rb, opts)
	if err != nil {
		if jr != nil {
			jr.Close()
		}
		return nil, err
	}
	run := &Run{ID: id, ex: ex, done: make(chan struct{})}
	m.mu.Lock()
	m.runs[id] = run
	m.mu.Unlock()

	go func() {
		st, err := ex.Run(m.ctx)
		if jr != nil {
			if cerr := jr.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		run.mu.Lock()
		run.fin = st
		run.err = err
		run.mu.Unlock()
		close(run.done)
	}()
	return run, nil
}

// Lookup returns a run by ID.
func (m *Manager) Lookup(id string) (*Run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	return r, ok
}

// Close cancels every in-flight run and refuses new ones.
func (m *Manager) Close() {
	m.cancel()
}
