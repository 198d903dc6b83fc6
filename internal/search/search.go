// Package search implements the configuration search component of Magus
// (Section 5): Algorithm 1, the heuristic iterative power-tuning search;
// the greedy per-neighbor tilt search; joint tilt-then-power tuning; the
// naive per-neighbor power baseline the paper compares against in Figure
// 13; and exhaustive search for small instances.
//
// All searches mutate a working netmodel.State in place toward C_after
// and report a trace of accepted tuning steps together with the number
// of candidate evaluations performed (each evaluation is one "what-if"
// invocation of the analysis model, the quantity that makes brute force
// intractable: "10 sectors x 5 power units is over 9 million
// configurations", Section 5).
//
// Every strategy is a thin proposer/acceptor over evalengine.Engine: it
// prices candidates read-only with ScoreAll (exact current utility plus
// each move's delta) and commits its choice with Commit, which
// re-evaluates exactly. Options.Workers only fans a ScoreAll batch out
// over goroutines, so no result depends on it. The golden-equivalence
// tests pin every strategy bit for bit to a reference loop that scores
// each candidate on a clone with the full-scan Utility. See evalengine's
// package comment.
package search

import (
	"context"
	"fmt"
	"sort"

	"magus/internal/config"
	"magus/internal/evalengine"
	"magus/internal/netmodel"
	"magus/internal/utility"
)

// Step is one accepted tuning move.
type Step struct {
	// Change is the applied configuration change.
	Change config.Change
	// Utility is the overall utility after applying the change: the
	// exact full-scan re-evaluation Commit performs.
	Utility float64
}

// Result summarizes a search run.
type Result struct {
	// Steps are the accepted tuning moves in order.
	Steps []Step
	// Evaluations counts candidate what-if evaluations of the model.
	Evaluations int
	// FinalUtility is the overall utility of the final configuration.
	FinalUtility float64
	// Recovered reports whether every degraded grid was restored to its
	// baseline rate (power search only; false otherwise).
	Recovered bool
	// Stats are the evaluation engine's instrumentation counters for
	// this run (moves proposed/accepted, delta vs full evaluations,
	// parallel batches and worker utilization).
	Stats evalengine.StatsSnapshot
}

// Options tune the search behaviour. The zero value uses defaults.
type Options struct {
	// Util is the optimization objective (default utility.Performance).
	Util utility.Func
	// MaxSteps caps accepted tuning moves (default 100).
	MaxSteps int
	// PowerUnitDB is the initial power tuning unit T (default 1 dB,
	// the paper's unit).
	PowerUnitDB float64
	// MaxPowerUnitDB is the largest unit T may grow to when no candidate
	// improves any grid (default 6 dB).
	MaxPowerUnitDB float64
	// TiltUnit is the tilt-index step used by Equalize's move set
	// (default 1).
	TiltUnit int
	// CapAtDefaultPower restricts power increases to each sector's
	// planner default (used by Equalize: operators reserve the hardware
	// headroom above the planned power for emergencies, which is exactly
	// the room Magus's mitigation spends).
	CapAtDefaultPower bool
	// CapUtility, when positive, stops a search once the overall
	// utility reaches it. Mitigation callers set it to f(C_before): the
	// objective is recovery of the upgrade-induced loss, not open-ended
	// optimization, so Formula 7 ratios stay within [0, 1].
	CapUtility float64
	// NoPruning disables Algorithm 1's candidate filter (the set β of
	// sectors that improve at least one degraded grid's SINR) and
	// evaluates every neighbor at each iteration instead. Provided for
	// the ablation benchmarks: it quantifies how much work the paper's
	// "conditionally good" pruning saves.
	NoPruning bool
	// Workers sets the engine's candidate-scoring parallelism: the
	// number of goroutines that score one batch over the shared state.
	// No search result depends on it; BruteForcePower ignores it.
	Workers int
	// Ctx, when non-nil, lets the caller abandon a long-running search:
	// every outer iteration checks it and the search returns Ctx's error
	// with the state left at the last committed configuration. A nil Ctx
	// means the search runs to completion.
	Ctx context.Context
}

// cancelled reports the context error once the caller's context is done.
func (o *Options) cancelled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

func (o *Options) applyDefaults() {
	if o.Util.U == nil {
		o.Util = utility.Performance
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 100
	}
	if o.PowerUnitDB <= 0 {
		o.PowerUnitDB = 1
	}
	if o.MaxPowerUnitDB <= 0 {
		o.MaxPowerUnitDB = 6
	}
	if o.TiltUnit <= 0 {
		o.TiltUnit = 1
	}
}

// engine builds the evaluation engine for one search run.
func (o *Options) engine(st *netmodel.State) *evalengine.Engine {
	return evalengine.New(st, o.Util, evalengine.Config{Workers: o.Workers, Ctx: o.Ctx})
}

// SortByDistanceTo orders sector IDs by the distance of their sites to
// the nearest of the target sectors, closest first — the neighbor
// ordering used by the greedy searches.
func SortByDistanceTo(st *netmodel.State, neighbors []int, targets []int) []int {
	net := st.Model.Net
	out := append([]int(nil), neighbors...)
	dist := func(b int) float64 {
		best := -1.0
		for _, t := range targets {
			d := net.Sectors[b].Pos.DistanceTo(net.Sectors[t].Pos)
			if best < 0 || d < best {
				best = d
			}
		}
		return best
	}
	sort.SliceStable(out, func(i, j int) bool { return dist(out[i]) < dist(out[j]) })
	return out
}

// Power runs Algorithm 1: iterative heuristic power tuning of the
// neighbor set. st must be at C_upgrade (targets already off); base is
// the C_before state used to identify degraded grids. st is mutated to
// C_after.
func Power(st *netmodel.State, base *netmodel.State, neighbors []int, opts Options) (*Result, error) {
	opts.applyDefaults()
	if st.Model != base.Model {
		return nil, fmt.Errorf("search: state and base use different models")
	}
	e := opts.engine(st)
	res, err := powerPhase(e, base, neighbors, &opts)
	if err != nil {
		return nil, err
	}
	res.FinalUtility = e.Current()
	res.Stats = e.Snapshot()
	return res, nil
}

// powerPhase is Algorithm 1's loop over one engine. It fills a fresh
// phase-local Result (Joint runs several phases on one engine, each with
// its own MaxSteps budget, exactly like the historical per-call limits).
func powerPhase(e *evalengine.Engine, base *netmodel.State, neighbors []int, opts *Options) (*Result, error) {
	st := e.State()
	res := &Result{}
	unit := opts.PowerUnitDB

	baseUtility := base.Utility(opts.Util)
	if opts.CapUtility > 0 && opts.CapUtility < baseUtility {
		baseUtility = opts.CapUtility
	}
	for len(res.Steps) < opts.MaxSteps {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		if e.Current() >= baseUtility {
			// The upgrade-induced loss is fully recovered; mitigation's
			// objective ("recover the loss in service performance which
			// would have occurred") is met.
			res.Recovered = true
			break
		}
		affected := st.DegradedGrids(base)
		if len(affected) == 0 {
			res.Recovered = true
			break
		}
		// Line 2-8 of Algorithm 1: collect β, the sectors whose power-up
		// by T units improves at least one affected grid.
		var beta []int
		if opts.NoPruning {
			for _, b := range neighbors {
				if !st.Cfg.Off(b) && !st.Cfg.AtMaxPower(b) {
					beta = append(beta, b)
				}
			}
		} else {
			beta = st.SINRImprovers(affected, neighbors, unit)
		}
		if len(beta) == 0 {
			// Increment the tuning unit T, as the algorithm prescribes.
			unit += opts.PowerUnitDB
			if unit > opts.MaxPowerUnitDB {
				break
			}
			continue
		}
		// Line 9: evaluate each candidate globally and keep the best.
		// The batch goes to the engine as one read-only scoring round,
		// fanned out over its workers. Ties keep the earliest candidate,
		// which is what the sequential argmax did.
		moves := make([]config.Change, len(beta))
		for i, b := range beta {
			moves[i] = config.Change{Sector: b, PowerDelta: unit}
		}
		scores, err := e.ScoreAll(moves)
		if err != nil {
			return nil, err
		}
		bestIdx := -1
		bestUtility := e.Current()
		for i, sc := range scores {
			if sc.Applied.PowerDelta == 0 {
				continue
			}
			res.Evaluations++
			if sc.Utility > bestUtility {
				bestUtility = sc.Utility
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			// No candidate improves the overall utility at this tuning
			// unit: grow T and retry ("increment T if needed"); only
			// when the largest unit also fails does the search stop.
			unit += opts.PowerUnitDB
			if unit > opts.MaxPowerUnitDB {
				break
			}
			continue
		}
		// Lines 10-12: commit the best change and continue. Commit
		// re-evaluates exactly, so the recorded utility is never
		// speculative.
		applied, current, err := e.Commit(moves[bestIdx])
		if err != nil {
			return nil, err
		}
		res.Steps = append(res.Steps, Step{Change: applied, Utility: current})
	}
	return res, nil
}

// NaivePower is the baseline the paper compares Algorithm 1 against
// (Figure 13): visit neighbors in order (closest to the target first)
// and increase each one's power 1 dB at a time until the overall utility
// worsens, then move to the next neighbor.
func NaivePower(st *netmodel.State, neighbors []int, opts Options) (*Result, error) {
	opts.applyDefaults()
	e := opts.engine(st)
	res, err := climbPhase(e, neighbors, &opts, config.Change{PowerDelta: opts.PowerUnitDB})
	if err != nil {
		return nil, err
	}
	res.FinalUtility = e.Current()
	res.Stats = e.Snapshot()
	return res, nil
}

// Tilt runs the paper's greedy tilt search: uptilt the first neighbor
// step by step until the utility worsens, then the second, and so on.
func Tilt(st *netmodel.State, neighbors []int, opts Options) (*Result, error) {
	opts.applyDefaults()
	e := opts.engine(st)
	res, err := climbPhase(e, neighbors, &opts, config.Change{TiltDelta: -1})
	if err != nil {
		return nil, err
	}
	res.FinalUtility = e.Current()
	res.Stats = e.Snapshot()
	return res, nil
}

// climbPhase is the greedy per-neighbor hill climb shared by Tilt,
// NaivePower and Joint: push one knob (unit, a single-step power or tilt
// move) while the utility strictly improves, then move to the next
// neighbor.
func climbPhase(e *evalengine.Engine, neighbors []int, opts *Options, unit config.Change) (*Result, error) {
	st := e.State()
	res := &Result{}
	for _, b := range neighbors {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		if st.Cfg.Off(b) {
			continue
		}
		if opts.CapUtility > 0 && e.Current() >= opts.CapUtility {
			break
		}
		mv := unit
		mv.Sector = b
		for len(res.Steps) < opts.MaxSteps {
			scores, err := e.ScoreAll([]config.Change{mv})
			if err != nil {
				return nil, err
			}
			if scores[0].Applied.IsZero() {
				break // knob range exhausted
			}
			res.Evaluations++
			if scores[0].Utility <= e.Current() {
				break // worsened (or flat): move on
			}
			applied, current, err := e.Commit(mv)
			if err != nil {
				return nil, err
			}
			res.Steps = append(res.Steps, Step{Change: applied, Utility: current})
		}
	}
	return res, nil
}

// Joint runs the paper's joint strategy — tilt tuning first, then power
// tuning on the tilted configuration ("first employing tilt-tuning,
// followed by power-tuning", Section 5) — and keeps alternating the two
// phases while they make progress (bounded), since a power change can
// open new profitable tilts and vice versa. All phases share one engine
// (and therefore one set of counters).
func Joint(st *netmodel.State, base *netmodel.State, neighbors []int, opts Options) (*Result, error) {
	opts.applyDefaults()
	if st.Model != base.Model {
		return nil, fmt.Errorf("search: state and base use different models")
	}
	e := opts.engine(st)
	out := &Result{}
	const maxRounds = 3
	for round := 0; round < maxRounds; round++ {
		tiltRes, err := climbPhase(e, neighbors, &opts, config.Change{TiltDelta: -1})
		if err != nil {
			return nil, err
		}
		powerRes, err := powerPhase(e, base, neighbors, &opts)
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, tiltRes.Steps...)
		out.Steps = append(out.Steps, powerRes.Steps...)
		out.Evaluations += tiltRes.Evaluations + powerRes.Evaluations
		out.FinalUtility = e.Current()
		out.Recovered = powerRes.Recovered
		if len(tiltRes.Steps) == 0 && len(powerRes.Steps) == 0 {
			break
		}
	}
	out.Stats = e.Snapshot()
	return out, nil
}

// Equalize runs a planner-style coordinate descent over every sector:
// repeatedly try +-PowerUnitDB power moves and +-1 tilt steps on each
// sector, committing any move that improves the overall utility, until a
// full pass makes no progress (or MaxSteps moves were committed).
//
// The paper evaluates against operational configurations produced by
// professional network planning ("radio network planners attempt to
// maximize coverage and minimize interference"); Equalize is the
// synthetic substitute that turns a freshly generated topology's default
// configuration into a locally optimal C_before, so that recovery ratios
// measure genuine upgrade mitigation rather than leftover planning slack.
//
// Each sector's candidate moves are scored as one batch; the first
// improving one commits and only the moves after it are rescored against
// the new state, which is the sequential first-improvement order.
func Equalize(st *netmodel.State, opts Options) (*Result, error) {
	opts.applyDefaults()
	e := opts.engine(st)
	res := &Result{}
	moves := []config.Change{
		{PowerDelta: opts.PowerUnitDB},
		{PowerDelta: -opts.PowerUnitDB},
		{TiltDelta: opts.TiltUnit},
		{TiltDelta: -opts.TiltUnit},
	}
	for pass := 0; ; pass++ {
		improvedInPass := false
		for b := 0; b < st.Cfg.NumSectors() && len(res.Steps) < opts.MaxSteps; b++ {
			if err := opts.cancelled(); err != nil {
				return nil, err
			}
			if st.Cfg.Off(b) {
				continue
			}
			improved, err := equalizeSector(e, b, moves, &opts, res)
			if err != nil {
				return nil, err
			}
			improvedInPass = improvedInPass || improved
		}
		if !improvedInPass || len(res.Steps) >= opts.MaxSteps {
			break
		}
	}
	res.FinalUtility = e.Current()
	res.Stats = e.Snapshot()
	return res, nil
}

// equalizeSector is one sector's share of an Equalize pass: score the
// sector's non-skipped moves as one batch, commit the first improving
// one, then rescore the moves after it against the new state. It stops
// as soon as MaxSteps moves are committed.
func equalizeSector(e *evalengine.Engine, b int, moves []config.Change, opts *Options, res *Result) (improved bool, err error) {
	st := e.State()
	// pending drops the moves the planner-headroom cap bars.
	pending := func(from []config.Change) []config.Change {
		var batch []config.Change
		for _, mv := range from {
			mv.Sector = b
			if opts.CapAtDefaultPower && mv.PowerDelta > 0 &&
				st.Cfg.PowerDbm(b)+mv.PowerDelta > st.Model.Net.Sectors[b].DefaultPowerDbm {
				continue
			}
			batch = append(batch, mv)
		}
		return batch
	}
	batch := pending(moves)
	for len(batch) > 0 && len(res.Steps) < opts.MaxSteps {
		scores, err := e.ScoreAll(batch)
		if err != nil {
			return improved, err
		}
		first := -1
		for i, sc := range scores {
			if sc.Applied.IsZero() {
				continue
			}
			res.Evaluations++
			if sc.Utility > e.Current()+1e-12 {
				first = i
				break
			}
		}
		if first < 0 {
			break
		}
		applied, current, err := e.Commit(batch[first])
		if err != nil {
			return improved, err
		}
		res.Steps = append(res.Steps, Step{Change: applied, Utility: current})
		improved = true
		batch = pending(batch[first+1:])
	}
	return improved, nil
}
