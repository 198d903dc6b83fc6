package campaign

import (
	"context"
	"math"
	"reflect"
	"testing"

	"magus/internal/core"
	"magus/internal/modelcache"
	"magus/internal/topology"
	"magus/internal/upgrade"
)

// TestEnvsIsolated: two Envs in one process share nothing. A has a
// snapshot directory and two search workers, B neither; building one
// market in each counts one build per cache, only A reports snapshot
// stats, each engine's default workers follow its own Env, and the
// plans are bit-identical.
func TestEnvsIsolated(t *testing.T) {
	a, err := NewEnv(MiniAreaSpec, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv(MiniAreaSpec, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*core.Plan, 0, 2)
	for _, env := range []*Env{a, b} {
		var engine *core.Engine
		for i := 0; i < 2; i++ {
			e, err := env.Engine(context.Background(), topology.Suburban, 1)
			if err != nil {
				t.Fatal(err)
			}
			if engine != nil && e != engine {
				t.Fatal("second lookup returned a different engine")
			}
			engine = e
		}
		if st := env.Engines.Stats(); st.Builds != 1 || st.Hits != 1 {
			t.Errorf("engine cache: %d builds, %d hits; want 1 and 1", st.Builds, st.Hits)
		}
		plan, err := engine.MitigatePlan(core.MitigateRequest{Scenario: upgrade.FourCorners, Method: core.Joint})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	if a.Engines == b.Engines {
		t.Fatal("the Envs share an engine cache")
	}
	if snap := a.Engines.Stats().Snapshot; snap == nil || snap.Builds != 1 {
		t.Errorf("A's snapshot stats = %+v, want one model build", snap)
	}
	if snap := b.Engines.Stats().Snapshot; snap != nil {
		t.Errorf("B reports snapshot stats %+v without a snapshot cache", snap)
	}
	if got := plans[0].Search.Stats.Workers; got != 2 {
		t.Errorf("A's plan scored on %d workers, want 2", got)
	}
	if got := plans[1].Search.Stats.Workers; got != 1 {
		t.Errorf("B's plan scored on %d workers, want 1", got)
	}
	pa, pb := plans[0], plans[1]
	if math.Float64bits(pa.UtilityAfter) != math.Float64bits(pb.UtilityAfter) ||
		!reflect.DeepEqual(pa.Search.Steps, pb.Search.Steps) {
		t.Errorf("plans differ: A %v after %d steps, B %v after %d steps",
			pa.UtilityAfter, len(pa.Search.Steps), pb.UtilityAfter, len(pb.Search.Steps))
	}
}

// TestEvictedMarketReloadsSnapshot: the engine cache is the only
// in-process holder of market models, so a market evicted from it comes
// back from its snapshot file. With room for one engine, building M, then
// N (evicting M), then M again must run two model builds and load M's
// snapshot once, and M's reloaded engine must plan bit-identically.
func TestEvictedMarketReloadsSnapshot(t *testing.T) {
	snaps, err := modelcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Spec: MiniAreaSpec, Engines: NewEngineCache(1), Snapshots: snaps}
	req := core.MitigateRequest{Scenario: upgrade.FourCorners, Method: core.Joint}
	var engines []*core.Engine
	var plans []*core.Plan
	for _, seed := range []int64{1, 2, 1} {
		e, err := env.Engine(context.Background(), topology.Suburban, seed)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.MitigatePlan(req)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
		plans = append(plans, plan)
	}
	if st := env.Engines.Stats(); st.Builds != 3 || st.Evictions != 2 {
		t.Errorf("engine cache: %d builds, %d evictions; want 3 and 2", st.Builds, st.Evictions)
	}
	if st := snaps.Stats(); st.Builds != 2 || st.Hits < 1 {
		t.Errorf("snapshots: %d builds, %d hits; want 2 and >= 1", st.Builds, st.Hits)
	}
	if engines[2] == engines[0] || engines[2].Model.Core() == engines[0].Model.Core() {
		t.Error("the evicted market's engine or core was reused")
	}
	first, again := plans[0], plans[2]
	if math.Float64bits(first.UtilityAfter) != math.Float64bits(again.UtilityAfter) ||
		!reflect.DeepEqual(first.Search.Steps, again.Search.Steps) {
		t.Errorf("reloaded plan differs: %v after %d steps, first %v after %d steps",
			again.UtilityAfter, len(again.Search.Steps), first.UtilityAfter, len(first.Search.Steps))
	}
}
