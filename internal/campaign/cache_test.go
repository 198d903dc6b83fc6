package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"magus/internal/core"
	"magus/internal/geo"
	"magus/internal/netmodel"
	"magus/internal/propagation"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

func cacheKey(seed int64) EngineKey {
	return EngineKey{Class: topology.Suburban, Seed: seed, SpecHash: SpecHash("test")}
}

// fakeEngine returns a distinct non-nil engine pointer without paying
// for a real market build.
func fakeEngine() *core.Engine { return &core.Engine{} }

func TestCacheSingleFlight(t *testing.T) {
	cache := NewEngineCache(4)
	var builds atomic.Int64
	var wg sync.WaitGroup
	engines := make([]*core.Engine, 16)
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := cache.GetOrBuild(cacheKey(1), func() (*core.Engine, error) {
				builds.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the race window
				return fakeEngine(), nil
			})
			if err != nil {
				t.Error(err)
			}
			engines[i] = e
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1 (single flight)", n)
	}
	for i := 1; i < len(engines); i++ {
		if engines[i] != engines[0] {
			t.Fatal("concurrent callers got different engines")
		}
	}
	st := cache.Stats()
	if st.Builds != 1 || st.Hits != 15 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 build, 15 hits, 1 miss", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	cache := NewEngineCache(2)
	build := func() (*core.Engine, error) { return fakeEngine(), nil }
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := cache.GetOrBuild(cacheKey(seed), build); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Size != 2 || st.Evictions != 1 || st.Builds != 3 {
		t.Fatalf("stats = %+v, want size 2 after 1 eviction", st)
	}
	// Seed 1 was evicted (least recently used); fetching it rebuilds.
	if _, err := cache.GetOrBuild(cacheKey(1), build); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Builds != 4 {
		t.Errorf("builds = %d, want 4 (evicted entry rebuilt)", st.Builds)
	}
	// Seed 3 is still resident: a hit, no rebuild.
	if _, err := cache.GetOrBuild(cacheKey(3), build); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Builds != 4 {
		t.Errorf("builds = %d, want 4 (resident entry reused)", st.Builds)
	}
}

func TestCacheRecencyOrder(t *testing.T) {
	cache := NewEngineCache(2)
	build := func() (*core.Engine, error) { return fakeEngine(), nil }
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := cache.GetOrBuild(cacheKey(seed), build); err != nil {
			t.Fatal(err)
		}
	}
	// Touch seed 1 so seed 2 becomes the LRU, then insert seed 3.
	if _, err := cache.GetOrBuild(cacheKey(1), build); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.GetOrBuild(cacheKey(3), build); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.GetOrBuild(cacheKey(1), build); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Builds != 3 {
		t.Errorf("builds = %d, want 3 (recently used entry survived)", st.Builds)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	cache := NewEngineCache(4)
	var calls atomic.Int64
	build := func() (*core.Engine, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("flaky substrate")
		}
		return fakeEngine(), nil
	}
	if _, err := cache.GetOrBuild(cacheKey(1), build); err == nil {
		t.Fatal("first build should fail")
	}
	e, err := cache.GetOrBuild(cacheKey(1), build)
	if err != nil || e == nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	if st := cache.Stats(); st.Size != 1 || st.Builds != 2 {
		t.Errorf("stats = %+v, want failed entry dropped then rebuilt", st)
	}
}

func TestSpecHashDistinguishes(t *testing.T) {
	type spec struct{ A, B int }
	if SpecHash(spec{1, 2}) == SpecHash(spec{2, 1}) {
		t.Error("different specs hashed alike")
	}
	if SpecHash(spec{1, 2}) != SpecHash(spec{1, 2}) {
		t.Error("equal specs hashed apart")
	}
}

// TestSharedCoreStats asserts the cache reports the substrate behind its
// engines once per distinct core: two cached engines whose models fork
// from one market must show one core, and the fake (model-less) engines
// must not panic the accounting.
func TestSharedCoreStats(t *testing.T) {
	net := topology.MustGenerate(topology.GenConfig{
		Seed:   7,
		Class:  topology.Suburban,
		Bounds: geo.NewRectCentered(geo.Point{}, 3000, 3000),
	})
	spm := propagation.MustNewSPM(2.635e9, nil)
	m := netmodel.MustNewModel(net, spm, net.Bounds, netmodel.Params{CellSizeM: 400})

	cache := NewEngineCache(4)
	for seed, model := range map[int64]*netmodel.Model{1: m, 2: m.ForkUsers()} {
		if _, err := cache.GetOrBuild(cacheKey(seed), func() (*core.Engine, error) {
			return &core.Engine{Model: model}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cache.GetOrBuild(cacheKey(3), func() (*core.Engine, error) {
		return fakeEngine(), nil
	}); err != nil {
		t.Fatal(err)
	}

	st := cache.Stats()
	if st.SharedCores == nil {
		t.Fatal("SharedCores not reported")
	}
	if st.SharedCores.Cores != 1 {
		t.Errorf("Cores = %d, want 1 (fork shares its parent's core)", st.SharedCores.Cores)
	}
	if st.SharedCores.Bytes <= 0 {
		t.Errorf("Bytes = %d, want > 0", st.SharedCores.Bytes)
	}
}

// TestSharedCoreLinkRowBytes: after a tilt plan the cache reports the
// per-tilt link rows its engine built, counted once for the engine and
// a simulation-style fork that shares its row cache, and never more
// than every entry at every tilt setting.
func TestSharedCoreLinkRowBytes(t *testing.T) {
	cache := NewEngineCache(4)
	e, err := testBuild(cache)(context.Background(), topology.Suburban, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mitigate(upgrade.SingleSector, core.TiltOnly, utility.Performance); err != nil {
		t.Fatal(err)
	}
	fork := e.Model.ForkUsers()
	if _, err := cache.GetOrBuild(cacheKey(99), func() (*core.Engine, error) {
		return &core.Engine{Model: fork}, nil
	}); err != nil {
		t.Fatal(err)
	}

	st := cache.Stats()
	if st.SharedCores == nil {
		t.Fatal("SharedCores not reported")
	}
	settings := 0
	for _, sec := range e.Net.Sectors {
		settings = max(settings, sec.Tilts.NumSettings())
	}
	bound := int64(e.Model.NumContributors()) * int64(settings) * 8
	got := st.SharedCores.LinkRowBytes
	if got <= 0 || got > bound {
		t.Fatalf("LinkRowBytes = %d, want in (0, %d]", got, bound)
	}
	if want := e.Model.LinkRowBytes(); got != want {
		t.Fatalf("LinkRowBytes = %d, want %d (engine and fork share one row cache)", got, want)
	}
}

// TestCacheTrimsAfterConcurrentBuilds: builds in flight together cannot
// be evicted by each other's misses, so the cache trims once they have
// finished rather than staying over capacity until the next miss.
func TestCacheTrimsAfterConcurrentBuilds(t *testing.T) {
	cache := NewEngineCache(1)
	var started sync.WaitGroup
	started.Add(3)
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 3; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cache.GetOrBuild(cacheKey(seed), func() (*core.Engine, error) {
				started.Done()
				started.Wait() // all three are in flight at once
				return fakeEngine(), nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := cache.Stats()
	if st.Builds != 3 || st.Size > st.Capacity {
		t.Errorf("stats = %+v, want 3 builds and Size <= Capacity", st)
	}
	if st.Evictions != int64(3-st.Size) {
		t.Errorf("evictions = %d with size %d, want every build beyond capacity evicted", st.Evictions, st.Size)
	}
}
