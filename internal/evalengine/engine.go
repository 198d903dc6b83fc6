// Package evalengine is the unified move → evaluate → accept pipeline
// behind every configuration search. A strategy (Power, Tilt, Equalize,
// annealing, ...) proposes candidate changes; the engine scores them and
// the strategy decides which to commit. The engine owns the bookkeeping
// the strategies used to hand-roll: the current-utility cache and
// instrumentation counters.
//
// ScoreAll prices a batch of independent alternatives read-only with
// State.SpeculateBatch: each score is Current() plus the move's utility
// delta over the grids it touches. Nothing is applied, so there is no
// undo, and Workers goroutines share the one committed state. A move that
// changes no grid's rate scores exactly Current(), so rounding can never
// win an argmax or pass an epsilon test. The scores do not depend on
// Workers, so neither does any search built on them.
//
// Commit applies a winner and re-evaluates with the exact full-scan
// Utility, so every reported step and plan utility is a full-scan value,
// never a speculative one.
package evalengine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"magus/internal/config"
	"magus/internal/netmodel"
	"magus/internal/utility"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of goroutines that score one ScoreAll batch,
	// each pricing a contiguous chunk of it against the shared committed
	// state. 0 or 1 scores on the calling goroutine. It changes
	// wall-clock time, not the scores.
	Workers int
	// Ctx cancels long scoring runs between batches. Optional.
	Ctx context.Context
}

// Score is one candidate's evaluation.
type Score struct {
	// Move is the change as proposed; Applied is what the configuration
	// actually absorbed after clamping (zero when the move is a no-op).
	Move    config.Change
	Applied config.Change
	// Utility is the overall utility the state would have after Applied:
	// the engine's Current() plus the move's delta, so it equals Current()
	// exactly when no grid's rate changes. Meaningless when
	// Applied.IsZero() (the searches never count no-ops as evaluations).
	Utility float64
}

// Stats holds the engine's atomic instrumentation counters.
type Stats struct {
	movesProposed   atomic.Int64
	movesAccepted   atomic.Int64
	deltaEvals      atomic.Int64
	fullEvals       atomic.Int64
	parallelBatches atomic.Int64
	busyNs          atomic.Int64
	batchCapNs      atomic.Int64 // Σ batch wall time × workers
}

// StatsSnapshot is a point-in-time copy of the counters, JSON-shaped for
// campaign status and /healthz.
type StatsSnapshot struct {
	MovesProposed    int64 `json:"moves_proposed"`
	MovesAccepted    int64 `json:"moves_accepted"`
	DeltaEvaluations int64 `json:"delta_evaluations"`
	// FullEvaluations counts exact full-scan re-evaluations: one per
	// Commit.
	FullEvaluations int64 `json:"full_evaluations"`
	ParallelBatches int64 `json:"parallel_batches"`
	Workers         int   `json:"workers"`
	// WorkerUtilization is Σ per-worker busy time divided by
	// Σ batch wall time × pool size: 1.0 means every worker scored
	// candidates for the full duration of every parallel batch.
	WorkerUtilization float64 `json:"worker_utilization,omitempty"`
}

// Merge accumulates other into s (utilization is batch-weighted).
func (s *StatsSnapshot) Merge(other StatsSnapshot) {
	wSelf, wOther := float64(s.ParallelBatches), float64(other.ParallelBatches)
	if wSelf+wOther > 0 {
		s.WorkerUtilization = (s.WorkerUtilization*wSelf + other.WorkerUtilization*wOther) / (wSelf + wOther)
	}
	s.MovesProposed += other.MovesProposed
	s.MovesAccepted += other.MovesAccepted
	s.DeltaEvaluations += other.DeltaEvaluations
	s.FullEvaluations += other.FullEvaluations
	s.ParallelBatches += other.ParallelBatches
	if other.Workers > s.Workers {
		s.Workers = other.Workers
	}
}

// Engine drives one search run over one committed State.
type Engine struct {
	main    *netmodel.State
	util    utility.Func
	workers int
	ctx     context.Context

	current float64

	stats Stats
}

// New builds an engine over st. It evaluates the starting utility with
// one exact full scan (the same call the seed searches open with).
func New(st *netmodel.State, util utility.Func, cfg Config) *Engine {
	if util.U == nil {
		util = utility.Performance
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return &Engine{
		main:    st,
		util:    util,
		workers: workers,
		ctx:     ctx,
		current: st.Utility(util),
	}
}

// State returns the committed state the engine mutates.
func (e *Engine) State() *netmodel.State { return e.main }

// Current returns the utility of the committed state. It is always an
// exact full-scan value, never a speculative delta.
func (e *Engine) Current() float64 { return e.current }

// Snapshot copies the instrumentation counters.
func (e *Engine) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		MovesProposed:    e.stats.movesProposed.Load(),
		MovesAccepted:    e.stats.movesAccepted.Load(),
		DeltaEvaluations: e.stats.deltaEvals.Load(),
		FullEvaluations:  e.stats.fullEvals.Load(),
		ParallelBatches:  e.stats.parallelBatches.Load(),
		Workers:          e.workers,
	}
	if capNs := e.stats.batchCapNs.Load(); capNs > 0 {
		snap.WorkerUtilization = float64(e.stats.busyNs.Load()) / float64(capNs)
	}
	return snap
}

// ScoreAll evaluates every candidate against the committed
// configuration (each as an independent alternative, not a sequence).
// Order of results matches the order of moves; ties between equal
// utilities are the caller's to break, and the slice order makes that
// deterministic regardless of worker scheduling.
//
// Every candidate is priced read-only by State.SpeculateBatch and
// reported as Current() plus its delta over the grids the move touches.
// Every access on the scoring path is a read, and nothing applies or
// evaluates the state during a batch, so a contiguous chunk per worker
// is race-free (TestSharedStateConcurrentScoring under -race). Each move
// is scored independently of the chunking, so the results do not depend
// on Workers.
func (e *Engine) ScoreAll(moves []config.Change) ([]Score, error) {
	e.stats.movesProposed.Add(int64(len(moves)))
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]Score, len(moves))
	n := e.workers
	if n > len(moves) {
		n = len(moves)
	}
	if n <= 1 {
		if err := e.scoreChunk(out, moves, 0, len(moves)); err != nil {
			return nil, err
		}
		return out, nil
	}
	chunk := (len(moves) + n - 1) / n
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(moves))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			workStart := time.Now()
			errs[w] = e.scoreChunk(out, moves, lo, hi)
			e.stats.busyNs.Add(time.Since(workStart).Nanoseconds())
		}(w, lo, hi)
	}
	wg.Wait()
	e.stats.parallelBatches.Add(1)
	e.stats.batchCapNs.Add(time.Since(start).Nanoseconds() * int64(n))
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scoreChunk prices moves[lo:hi] into out[lo:hi], counting evaluations
// and surfacing the first per-move error.
func (e *Engine) scoreChunk(out []Score, moves []config.Change, lo, hi int) error {
	res := e.main.SpeculateBatch(moves[lo:hi], e.util, nil)
	var evals int64
	defer func() { e.stats.deltaEvals.Add(evals) }()
	for i, r := range res {
		mv := moves[lo+i]
		if r.Err != nil {
			return fmt.Errorf("evalengine: speculate %v: %w", mv, r.Err)
		}
		out[lo+i] = Score{Move: mv, Applied: r.Applied, Utility: e.current + r.Delta}
		if !r.Applied.IsZero() {
			evals++
		}
	}
	return nil
}

// Commit applies mv to the committed state (typically a ScoreAll winner,
// being re-applied exactly as the seed searches re-apply theirs) and
// re-evaluates with the exact full-scan Utility, counted as one full
// evaluation.
func (e *Engine) Commit(mv config.Change) (applied config.Change, current float64, err error) {
	applied, err = e.main.Apply(mv)
	if err != nil {
		return applied, e.current, err
	}
	if !applied.IsZero() {
		e.stats.movesAccepted.Add(1)
	}
	e.stats.fullEvals.Add(1)
	e.current = e.main.Utility(e.util)
	return applied, e.current, nil
}
