// Parallel-search study: quantifies what the evalengine refactor buys —
// read-only delta scoring versus clone-and-rescore, and parallel
// candidate scoring versus the sequential search — on a full-size
// evaluation market. Not a paper artifact; it meters this
// reproduction's own planning throughput the way Section 7's
// "implementation" paragraph meters the original prototype.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"magus/internal/campaign"
	"magus/internal/config"
	"magus/internal/core"
	"magus/internal/evalengine"
	"magus/internal/netmodel"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// BenchTiming is one extra timing a study exports into magus-bench's
// -json records, shaped like a Go benchmark result.
type BenchTiming struct {
	Name       string
	Iterations int64
	NsPerOp    int64
}

// Timed is implemented by studies that export extra timings beyond
// their own wall clock.
type Timed interface {
	Timings() []BenchTiming
}

// ParallelJointStudy compares the sequential and parallel joint search
// on one market, plus the per-candidate cost of read-only delta scoring
// (SpeculateBatch) against the clone-and-full-rescore it replaces.
type ParallelJointStudy struct {
	Seed    int64
	Workers int

	// Sequential vs parallel joint search on the same upgrade.
	SeqNs      int64
	ParNs      int64
	SeqUtility float64
	ParUtility float64
	Stats      evalengine.StatsSnapshot

	// Per-candidate evaluation cost, measured over the search's own
	// first candidate set.
	Candidates     int
	SpeculateNsPer int64
	CloneFullNsPer int64
}

// SearchSpeedup is the sequential/parallel wall-time ratio.
func (s *ParallelJointStudy) SearchSpeedup() float64 {
	if s.ParNs == 0 {
		return 0
	}
	return float64(s.SeqNs) / float64(s.ParNs)
}

// EvalSpeedup is the clone-and-rescore/speculate per-candidate ratio.
func (s *ParallelJointStudy) EvalSpeedup() float64 {
	if s.SpeculateNsPer == 0 {
		return 0
	}
	return float64(s.CloneFullNsPer) / float64(s.SpeculateNsPer)
}

func (s *ParallelJointStudy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "parallel joint search, seed %d, %d workers\n", s.Seed, s.Workers)
	fmt.Fprintf(&b, "  joint sequential: %8.1f ms  utility %.1f\n", float64(s.SeqNs)/1e6, s.SeqUtility)
	fmt.Fprintf(&b, "  joint parallel:   %8.1f ms  utility %.1f  (%.2fx)\n",
		float64(s.ParNs)/1e6, s.ParUtility, s.SearchSpeedup())
	fmt.Fprintf(&b, "  per-candidate eval over %d candidates:\n", s.Candidates)
	fmt.Fprintf(&b, "    speculate (delta): %8.0f ns\n", float64(s.SpeculateNsPer))
	fmt.Fprintf(&b, "    clone + rescore:   %8.0f ns  (speculate %.1fx faster)\n",
		float64(s.CloneFullNsPer), s.EvalSpeedup())
	fmt.Fprintf(&b, "  engine: %d proposed, %d accepted, %d delta / %d full evals, utilization %.2f\n",
		s.Stats.MovesProposed, s.Stats.MovesAccepted,
		s.Stats.DeltaEvaluations, s.Stats.FullEvaluations, s.Stats.WorkerUtilization)
	return b.String()
}

// Timings exports the study's headline numbers as bench records.
func (s *ParallelJointStudy) Timings() []BenchTiming {
	return []BenchTiming{
		{Name: "joint-search-seq", Iterations: 1, NsPerOp: s.SeqNs},
		{Name: fmt.Sprintf("joint-search-par%d", s.Workers), Iterations: 1, NsPerOp: s.ParNs},
		{Name: "eval-speculate", Iterations: int64(s.Candidates), NsPerOp: s.SpeculateNsPer},
		{Name: "eval-clone-full", Iterations: int64(s.Candidates), NsPerOp: s.CloneFullNsPer},
	}
}

// RunParallelJoint runs the study on the suburban evaluation market.
// workers <= 0 selects NumCPU.
func RunParallelJoint(env *campaign.Env, seed int64, workers int) (*ParallelJointStudy, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	engine, err := env.Build(seed, campaign.DefaultAreaSpec(AllClasses[1]))
	if err != nil {
		return nil, err
	}
	study := &ParallelJointStudy{Seed: seed, Workers: workers}

	// The four-corners scenario gives the search its largest neighbor
	// set, the shape where candidate scoring dominates.
	run := func(w int) (*core.Plan, int64, error) {
		start := time.Now()
		plan, err := engine.MitigatePlan(core.MitigateRequest{
			Scenario: upgrade.FourCorners,
			Method:   core.Joint,
			Workers:  w,
		})
		return plan, time.Since(start).Nanoseconds(), err
	}
	seqPlan, seqNs, err := run(1)
	if err != nil {
		return nil, err
	}
	parPlan, parNs, err := run(workers)
	if err != nil {
		return nil, err
	}
	study.SeqNs, study.ParNs = seqNs, parNs
	study.SeqUtility, study.ParUtility = seqPlan.UtilityAfter, parPlan.UtilityAfter
	study.Stats = parPlan.Search.Stats

	// Per-candidate cost: score every neighbor's +1 dB move once by the
	// engine's read-only delta scorer and once by clone-and-rescore.
	work := seqPlan.Upgrade.Clone()
	moves := make([]config.Change, 0, len(seqPlan.Neighbors))
	for _, b := range seqPlan.Neighbors {
		moves = append(moves, config.Change{Sector: b, PowerDelta: 1})
	}
	study.Candidates = len(moves)
	if len(moves) > 0 {
		out := make([]netmodel.BatchResult, 0, 1)
		start := time.Now()
		for i := range moves {
			out = work.SpeculateBatch(moves[i:i+1], utility.Performance, out[:0])
			if out[0].Err != nil {
				return nil, out[0].Err
			}
		}
		study.SpeculateNsPer = time.Since(start).Nanoseconds() / int64(len(moves))

		start = time.Now()
		for _, mv := range moves {
			cl := work.Clone()
			if _, err := cl.Apply(mv); err != nil {
				return nil, err
			}
			_ = cl.Utility(utility.Performance)
		}
		study.CloneFullNsPer = time.Since(start).Nanoseconds() / int64(len(moves))
	}
	return study, nil
}
