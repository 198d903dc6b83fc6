package experiments

import (
	"fmt"
	"strings"
	"time"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/topology"
	"magus/internal/waveplan"
)

// WaveSeason is the upgrade-season scheduling experiment: the annealed
// wave schedule against the naive round-robin baseline on the same
// market, calendar and per-wave mitigation search, compared on the
// number the scheduler optimizes — the season-wide minimum f(C_after).
// The calendar is deliberately tight (fewer slots than the conflict
// graph would like) so waves must co-darken sectors and the assignment
// actually matters; with a generous calendar every wave is a singleton
// and any order scores the same.
type WaveSeason struct {
	Seed     int64
	Annealed *waveplan.Result
	Naive    *waveplan.Result
	AnnealNs int64
	NaiveNs  int64
}

// waveSeasonConstraints is the tight calendar: 3 crews over 6 slots on
// a suburban market forces multi-sector waves at overlap threshold 0.4.
func waveSeasonConstraints() waveplan.Constraints {
	return waveplan.Constraints{CrewsPerWave: 3, MaxWaves: 6, OverlapThreshold: 0.4}
}

// RunWaveSeason plans the season both ways on the suburban evaluation
// market.
func RunWaveSeason(env *campaign.Env, seed int64) (*WaveSeason, error) {
	engine, err := env.Build(seed, campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		return nil, err
	}
	opts := waveplan.Options{
		Constraints: waveSeasonConstraints(),
		Method:      core.Joint,
	}

	start := time.Now()
	annealed, err := waveplan.Plan(engine, nil, opts)
	if err != nil {
		return nil, fmt.Errorf("annealed season: %w", err)
	}
	annealNs := time.Since(start).Nanoseconds()

	byWave, err := waveplan.RoundRobin(annealed.Sectors, annealed.Constraints)
	if err != nil {
		return nil, fmt.Errorf("round robin: %w", err)
	}
	start = time.Now()
	naive, err := waveplan.EvaluateAssignment(engine, byWave, opts)
	if err != nil {
		return nil, fmt.Errorf("naive season: %w", err)
	}
	return &WaveSeason{
		Seed:     seed,
		Annealed: annealed,
		Naive:    naive,
		AnnealNs: annealNs,
		NaiveNs:  time.Since(start).Nanoseconds(),
	}, nil
}

// Gap is the annealed schedule's advantage in season-wide minimum
// f(C_after) over the naive baseline.
func (s *WaveSeason) Gap() float64 {
	return s.Annealed.MinWaveUtility - s.Naive.MinWaveUtility
}

func (s *WaveSeason) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "upgrade-season scheduling, suburban seed %d: %d sectors, %d crews over %d slots (threshold %.2f)\n",
		s.Seed, len(s.Annealed.Sectors), s.Annealed.Constraints.CrewsPerWave,
		s.Annealed.Constraints.MaxWaves, s.Annealed.Constraints.OverlapThreshold)
	fmt.Fprintf(&b, "  conflict graph: %d edges, max degree %d; anneal accepted %d of %d moves\n",
		s.Annealed.ConflictEdges, s.Annealed.MaxConflictDegree,
		s.Annealed.AnnealAccepted, s.Annealed.AnnealIterations)
	fmt.Fprintf(&b, "  season min f(C_after):  annealed %.1f  round-robin %.1f  (gap %+.1f)\n",
		s.Annealed.MinWaveUtility, s.Naive.MinWaveUtility, s.Gap())
	fmt.Fprintf(&b, "  season mean f(C_after): annealed %.1f  round-robin %.1f\n",
		s.Annealed.MeanWaveUtility, s.Naive.MeanWaveUtility)
	fmt.Fprintf(&b, "  handovers: annealed %.0f  round-robin %.0f\n",
		s.Annealed.TotalHandovers, s.Naive.TotalHandovers)
	b.WriteString(s.Annealed.String())
	return b.String()
}

// Timings exports both schedules' wall clocks and, scaled through
// NsPerOp, the season-minimum utilities the acceptance gate reads.
func (s *WaveSeason) Timings() []BenchTiming {
	return []BenchTiming{
		{Name: "annealed", Iterations: 1, NsPerOp: s.AnnealNs},
		{Name: "round-robin", Iterations: 1, NsPerOp: s.NaiveNs},
		// Utility floors recorded as milli-utility integers so the JSON
		// record preserves the comparison the experiment exists to make.
		{Name: "min-utility-annealed", Iterations: 1, NsPerOp: int64(1000 * s.Annealed.MinWaveUtility)},
		{Name: "min-utility-round-robin", Iterations: 1, NsPerOp: int64(1000 * s.Naive.MinWaveUtility)},
	}
}
