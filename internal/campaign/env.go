package campaign

import (
	"context"

	"magus/internal/core"
	"magus/internal/modelcache"
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

// Env is one daemon's market environment. magusd, the CLIs and the
// experiment runners each build their own and pass it down; two Envs in
// one process share nothing. A literal with only Engines set is a valid
// Env without snapshots.
type Env struct {
	// Spec sizes a class's market for Engine; nil means DefaultAreaSpec.
	Spec func(topology.AreaClass) AreaSpec
	// Engines memoizes this Env's built engines (required).
	Engines *EngineCache
	// Snapshots saves model builds across processes; nil builds models
	// directly. A snapshot is bit-identical to a direct build.
	Snapshots *modelcache.Cache
	// SearchWorkers is the default candidate-scoring parallelism of the
	// engines this Env builds (0 or 1: sequential). Plans are the same
	// at every value.
	SearchWorkers int
}

// NewEnv returns an Env with a fresh engine cache. A non-empty
// snapshotDir opens (creating if needed) a model snapshot cache there
// and hands it to the engine cache, whose Stats then report both
// layers. A negative searchWorkers counts as 0.
func NewEnv(spec func(topology.AreaClass) AreaSpec, snapshotDir string, searchWorkers int) (*Env, error) {
	env := &Env{Spec: spec, Engines: NewEngineCache(0), SearchWorkers: max(searchWorkers, 0)}
	if snapshotDir != "" {
		mc, err := modelcache.Open(snapshotDir)
		if err != nil {
			return nil, err
		}
		env.Snapshots, env.Engines.snapshots = mc, mc
	}
	return env, nil
}

// Key returns the engine cache key for a seed and spec.
func (*Env) Key(seed int64, spec AreaSpec) EngineKey {
	return EngineKey{Class: spec.Class, Seed: seed, SpecHash: SpecHash(spec)}
}

// Build returns the planner-optimized engine for a seed and spec,
// building it on first use and memoizing it in the Env's engine cache.
// Safe for concurrent use; concurrent callers with different keys build
// in parallel while callers of the same key share one build.
func (e *Env) Build(seed int64, spec AreaSpec) (*core.Engine, error) {
	equalize := spec.EqualizeSteps
	if equalize == 0 {
		equalize = 300
	}
	return e.Engines.GetOrBuild(e.Key(seed, spec), func() (*core.Engine, error) {
		return core.NewEngine(core.SetupConfig{
			Seed:          seed,
			Class:         spec.Class,
			RegionSpanM:   spec.RegionSpanM,
			CellSizeM:     spec.CellSizeM,
			EqualizeSteps: equalize,
			SearchWorkers: e.SearchWorkers,
			ModelCache:    e.Snapshots,
		})
	})
}

// Engine is Build over the Env's spec for class; it is a BuildFunc.
func (e *Env) Engine(_ context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
	spec := e.Spec
	if spec == nil {
		spec = DefaultAreaSpec
	}
	return e.Build(seed, spec(class))
}
