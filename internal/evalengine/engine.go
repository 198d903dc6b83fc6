// Package evalengine is the unified move → evaluate → accept pipeline
// behind every configuration search. A strategy (Power, Tilt, Equalize,
// annealing, ...) proposes candidate changes; the engine scores them and
// the strategy decides which to commit. The engine owns the bookkeeping
// the strategies used to hand-roll: undo, the current-utility cache and
// instrumentation counters.
//
// Two ways to evaluate a move:
//
//   - ScoreAll prices a batch of independent alternatives read-only with
//     State.SpeculateBatch: each score is Current() plus the move's
//     utility delta over the grids it touches. Nothing is applied, so
//     there is no undo, and Workers goroutines share the one committed
//     state. A move that changes no grid's rate scores exactly Current(),
//     so tracked-sum rounding can never win an argmax or pass an
//     epsilon test. Scores are float by default; Config.FixedPoint
//     selects the quantized kernel. Within a batch the scores do not
//     depend on Workers.
//   - Try/Keep/Undo applies a move to the committed state, runs the
//     exact full-scan Utility and reverts on Undo: the sequential
//     climbs' native shape.
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
	// FixedPoint selects SpeculateBatch's quantized centi-dB kernel
	// instead of the float one. Scores may deviate from the float path
	// by the fixed-point quantization (≤0.1% utility relative error, see
	// netmodel/fixedpoint.go); commits still re-evaluate exactly, so
	// reported plan utilities are never quantized. Under the
	// magus_nofixed build tag the kernel evaluates in float.
	FixedPoint bool
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
	FullEvaluations  int64 `json:"full_evaluations"`
	ParallelBatches  int64 `json:"parallel_batches"`
	Workers          int   `json:"workers"`
	FixedPoint       bool  `json:"fixed_point,omitempty"`
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
	s.FixedPoint = s.FixedPoint || other.FixedPoint
}

// Engine drives one search run over one committed State.
type Engine struct {
	main    *netmodel.State
	util    utility.Func
	workers int
	fixed   bool
	ctx     context.Context

	current float64

	// pending is the applied change of the last Try, awaiting Keep/Undo.
	pending config.Change

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
		fixed:   cfg.FixedPoint,
		ctx:     ctx,
		current: st.Utility(util),
	}
}

// State returns the committed state the engine mutates.
func (e *Engine) State() *netmodel.State { return e.main }

// Util returns the objective the engine scores against.
func (e *Engine) Util() utility.Func { return e.util }

// Workers returns the scoring parallelism (1 = the calling goroutine).
func (e *Engine) Workers() int { return e.workers }

// Current returns the utility of the committed state. It is always an
// exact full-scan value, never a speculative delta.
func (e *Engine) Current() float64 { return e.current }

// Parallel reports whether ScoreAll batches fan out over several
// goroutines sharing the committed state.
func (e *Engine) Parallel() bool { return e.workers > 1 }

// FixedPoint reports whether ScoreAll uses the quantized kernel.
func (e *Engine) FixedPoint() bool { return e.fixed }

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
	snap.FixedPoint = e.fixed
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
// Tracking is enabled single-threaded before the fan-out; after that
// every access on the scoring path is a read, so a contiguous chunk per
// worker is race-free (TestSharedStateConcurrentScoring under -race).
// Each move is scored independently of the chunking, so the results do
// not depend on Workers.
func (e *Engine) ScoreAll(moves []config.Change) ([]Score, error) {
	e.stats.movesProposed.Add(int64(len(moves)))
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	e.main.EnableUtilityTracking(e.util)
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
	res := e.main.SpeculateBatch(moves[lo:hi], e.util, e.fixed, nil)
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

// Try applies mv to the committed state and returns the exact resulting
// utility, leaving the move in place: the caller accepts it with Keep or
// discards it with Undo. This is the sequential strategies' native
// try/keep-or-undo shape; a no-op move is reported without evaluation
// and needs neither Keep nor Undo.
func (e *Engine) Try(mv config.Change) (applied config.Change, u float64, err error) {
	e.stats.movesProposed.Add(1)
	applied, err = e.main.Apply(mv)
	if err != nil {
		return applied, e.current, err
	}
	e.pending = applied
	if applied.IsZero() {
		return applied, e.current, nil
	}
	e.stats.fullEvals.Add(1)
	return applied, e.main.Utility(e.util), nil
}

// Keep accepts the pending Try move at utility u (the value Try
// returned; the state already reflects the move, so no re-evaluation).
func (e *Engine) Keep(u float64) {
	if !e.pending.IsZero() {
		e.stats.movesAccepted.Add(1)
		e.pending = config.Change{}
	}
	e.current = u
}

// Undo reverts the pending Try move.
func (e *Engine) Undo() error {
	if e.pending.IsZero() {
		return nil
	}
	inv := e.pending.Inverse()
	e.pending = config.Change{}
	if _, err := e.main.Apply(inv); err != nil {
		return fmt.Errorf("evalengine: undo %v: %w", inv, err)
	}
	return nil
}

// Commit applies mv to the committed state (typically a ScoreAll winner,
// being re-applied exactly as the seed searches re-apply theirs) and
// re-evaluates with the exact full-scan Utility.
func (e *Engine) Commit(mv config.Change) (applied config.Change, current float64, err error) {
	applied, err = e.main.Apply(mv)
	if err != nil {
		return applied, e.current, err
	}
	if !applied.IsZero() {
		e.stats.movesAccepted.Add(1)
	}
	e.current = e.main.Utility(e.util)
	return applied, e.current, nil
}
