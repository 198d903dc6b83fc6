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
//
// Runners that build markets take a *campaign.Env first; runners sharing
// an Env share its engine cache.
package experiments

import (
	"sync"

	"magus/internal/campaign"
	"magus/internal/topology"
)

// AreaSpec is campaign.AreaSpec; it stays only for perfbench, which
// compiles against it.
type AreaSpec = campaign.AreaSpec

// DefaultAreaSpec forwards to campaign.DefaultAreaSpec; it stays only
// for perfbench, which compiles against it.
func DefaultAreaSpec(class topology.AreaClass) AreaSpec { return campaign.DefaultAreaSpec(class) }

// EngineKey forwards to campaign.Env.Key; it stays only for perfbench,
// which compiles against it.
func EngineKey(seed int64, spec AreaSpec) campaign.EngineKey {
	return (*campaign.Env).Key(nil, seed, spec)
}

// AllClasses lists the paper's three area classes.
var AllClasses = []topology.AreaClass{topology.Rural, topology.Suburban, topology.Urban}

// WarmEngines builds every (class, seed) default-spec engine in env
// concurrently, so a subsequent sweep pays no serial construction cost.
// The first error is returned; successfully built engines stay cached
// either way.
func WarmEngines(env *campaign.Env, seeds []int64) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(AllClasses)*len(seeds))
	for _, class := range AllClasses {
		for _, seed := range seeds {
			wg.Add(1)
			go func(c topology.AreaClass, sd int64) {
				defer wg.Done()
				if _, err := env.Build(sd, campaign.DefaultAreaSpec(c)); err != nil {
					errs <- err
				}
			}(class, seed)
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}
