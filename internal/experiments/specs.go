// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 3 and Section 6): one runner per artifact, each
// returning a structured result whose String method prints rows shaped
// like the paper's.
//
// Absolute numbers differ from the paper — the substrate is a synthetic
// market built from seeded terrain and hexagonal topologies rather than
// a production carrier's operational data — but each runner's result
// carries the qualitative claims the paper makes about that artifact
// (orderings, who wins, rough factors), and the test suite asserts them.
package experiments

import (
	"sync"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/topology"
)

// AreaSpec sizes an evaluation area for a class. Region spans keep the
// paper's tuning-area-inside-analysis-region structure (10 km tuning in
// 30 km analysis) at one third scale per dimension so a full Table 1 run
// completes in seconds.
type AreaSpec struct {
	Class       topology.AreaClass
	RegionSpanM float64
	CellSizeM   float64
	// EqualizeSteps overrides the baseline load-equalization iteration
	// count; zero keeps the evaluation default (300).
	EqualizeSteps int
}

// DefaultAreaSpec returns the evaluation geometry for a class. Grid
// resolution is scaled with inter-site distance so each class's model
// has comparable cell counts.
func DefaultAreaSpec(class topology.AreaClass) AreaSpec {
	switch class {
	case topology.Rural:
		return AreaSpec{Class: class, RegionSpanM: 24000, CellSizeM: 300}
	case topology.Urban:
		return AreaSpec{Class: class, RegionSpanM: 5400, CellSizeM: 100}
	default:
		return AreaSpec{Class: topology.Suburban, RegionSpanM: 10800, CellSizeM: 200}
	}
}

// MiniAreaSpec returns a miniature geometry for a class: engines build
// in milliseconds instead of seconds. Used by magusd -mini for fleet
// smoke tests and demos; planning quality is not representative.
func MiniAreaSpec(class topology.AreaClass) AreaSpec {
	switch class {
	case topology.Rural:
		return AreaSpec{Class: class, RegionSpanM: 12000, CellSizeM: 600, EqualizeSteps: 40}
	case topology.Urban:
		return AreaSpec{Class: class, RegionSpanM: 2400, CellSizeM: 150, EqualizeSteps: 40}
	default:
		return AreaSpec{Class: topology.Suburban, RegionSpanM: 5400, CellSizeM: 300, EqualizeSteps: 40}
	}
}

// AllClasses lists the paper's three area classes.
var AllClasses = []topology.AreaClass{topology.Rural, topology.Suburban, topology.Urban}

// engineCache memoizes built engines: experiment runners share areas
// (Table 1, Figure 13 and Figure 11 all evaluate the same markets), and
// an Engine is immutable once built — every mitigation works on clones
// of its baseline state. It is the campaign subsystem's single-flight
// LRU, shared with the orchestrator (see SharedEngineCache) so the two
// can never diverge: concurrent callers of the same key join one build,
// distinct markets construct in parallel.
var engineCache = campaign.NewEngineCache(0)

// SharedEngineCache exposes the process-wide engine cache so the
// campaign orchestrator (and its metrics) use the same instance as the
// experiment runners.
func SharedEngineCache() *campaign.EngineCache { return engineCache }

// EngineKey returns the cache key for a seed and spec.
func EngineKey(seed int64, spec AreaSpec) campaign.EngineKey {
	return campaign.EngineKey{Class: spec.Class, Seed: seed, SpecHash: campaign.SpecHash(spec)}
}

// BuildEngine returns the planner-optimized engine for a seed and spec,
// building it on first use and memoizing it in the shared engine cache.
// Safe for concurrent use; concurrent callers with different keys build
// in parallel while callers of the same key share one build.
func BuildEngine(seed int64, spec AreaSpec) (*core.Engine, error) {
	equalize := spec.EqualizeSteps
	if equalize == 0 {
		equalize = 300
	}
	return engineCache.GetOrBuild(EngineKey(seed, spec), func() (*core.Engine, error) {
		return core.NewEngine(core.SetupConfig{
			Seed:          seed,
			Class:         spec.Class,
			RegionSpanM:   spec.RegionSpanM,
			CellSizeM:     spec.CellSizeM,
			EqualizeSteps: equalize,
			// The process-wide default (see SetSearchWorkers); the planner
			// pass is workers-invariant, so cached engines stay identical.
			SearchWorkers: SearchWorkersDefault(),
			// The process-wide snapshot cache (see SetModelCacheDir); the
			// snapshot is bit-identical to a direct build, so cached
			// engines stay identical too.
			ModelCache: ModelCache(),
		})
	})
}

// WarmEngines builds every (class, seed) engine concurrently, so a
// subsequent sweep pays no serial construction cost. The first error is
// returned; successfully built engines stay cached either way.
func WarmEngines(seeds []int64) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(AllClasses)*len(seeds))
	for _, class := range AllClasses {
		for _, seed := range seeds {
			wg.Add(1)
			go func(c topology.AreaClass, sd int64) {
				defer wg.Done()
				if _, err := BuildEngine(sd, DefaultAreaSpec(c)); err != nil {
					errs <- err
				}
			}(class, seed)
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}
