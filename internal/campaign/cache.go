package campaign

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"sync"

	"magus/internal/core"
	"magus/internal/modelcache"
	"magus/internal/netmodel"
	"magus/internal/topology"
)

// EngineKey identifies one built market: the class and seed that drive
// the synthetic substrate plus a hash of every other knob of the spec
// (region span, cell size, equalization budget, ...). Two keys are equal
// exactly when the builds they describe are interchangeable.
type EngineKey struct {
	Class    topology.AreaClass
	Seed     int64
	SpecHash uint64
}

// SpecHash folds the printed form of its arguments into an FNV-1a hash,
// the canonical way to derive EngineKey.SpecHash from a spec struct.
// %#v includes field names, so structs with equal values but different
// types hash apart.
func SpecHash(parts ...any) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%#v;", p)
	}
	return h.Sum64()
}

// CacheStats is a point-in-time snapshot of an EngineCache's counters.
// Hits counts lookups that found an entry (including callers that joined
// an in-flight build); Builds counts constructions actually executed, so
// Builds ≤ Misses always and Builds < Misses when single-flight merging
// saved work.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Builds    int64 `json:"builds"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	// Snapshot reports the on-disk model snapshot cache the engines draw
	// from (see NewEnv); nil when they build their models directly.
	Snapshot *modelcache.Stats `json:"snapshot,omitempty"`
	// SharedCores reports the immutable model substrate behind the cached
	// engines; nil when no cached engine carries a model.
	SharedCores *SharedCoreStats `json:"shared_cores,omitempty"`
}

// SharedCoreStats aggregates the distinct netmodel.ModelCores referenced
// by the cached engines. Cores counts distinct substrates, Refs the
// Models attached across all of them (a GC-lazy upper bound — see
// ModelCore.Refs), Bytes the resident substrate size paid once per core
// no matter how many engines, workers or forks share it. LinkRowBytes
// sums the per-tilt link-gain rows built so far, once per distinct row
// cache (an engine's Model and the simulation forks that share it).
type SharedCoreStats struct {
	Cores        int   `json:"cores"`
	Refs         int64 `json:"refs"`
	Bytes        int64 `json:"bytes"`
	LinkRowBytes int64 `json:"link_row_bytes"`
}

// EngineCache is a bounded LRU of built engines with single-flight
// construction: concurrent callers asking for the same key share one
// build, and the least recently used entries are evicted once the cache
// exceeds its capacity. An Engine is immutable after construction (every
// mitigation works on clones of its baseline state), so a cached engine
// is safe to hand to any number of concurrent jobs.
type EngineCache struct {
	mu      sync.Mutex
	cap     int
	entries map[EngineKey]*cacheEntry
	order   *list.List // front = most recently used; values are *cacheEntry
	stats   CacheStats

	// snapshots is the model snapshot cache the engines built through
	// this cache draw from, set once by NewEnv so Stats can report both
	// layers together (an engine-cache miss that hits a snapshot still
	// skips the expensive model build).
	snapshots *modelcache.Cache
}

type cacheEntry struct {
	key    EngineKey
	elem   *list.Element
	ready  chan struct{} // closed when engine/err are set
	engine *core.Engine
	err    error
}

// DefaultCacheCapacity holds every market the full experiment sweep
// touches (3 classes x a handful of seeds) with room to spare; engines
// dominate the process's memory, so the bound is deliberately modest.
const DefaultCacheCapacity = 32

// NewEngineCache returns a cache bounded to capacity entries
// (DefaultCacheCapacity when capacity <= 0).
func NewEngineCache(capacity int) *EngineCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &EngineCache{
		cap:     capacity,
		entries: make(map[EngineKey]*cacheEntry),
		order:   list.New(),
	}
}

// GetOrBuild returns the engine for key, running build at most once per
// key across concurrent callers. Failed builds are not cached: the entry
// is dropped so a later call retries, and every caller that joined the
// failed flight observes the same error.
func (c *EngineCache) GetOrBuild(key EngineKey, build func() (*core.Engine, error)) (*core.Engine, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		return e.engine, e.err
	}
	c.stats.Misses++
	c.stats.Builds++
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	c.evictLocked()
	c.mu.Unlock()

	e.engine, e.err = build()
	c.mu.Lock()
	if e.err != nil {
		// Drop the failed entry (if eviction has not already) so the next
		// request retries instead of serving a stale error forever.
		if cur, ok := c.entries[key]; ok && cur == e {
			delete(c.entries, key)
			c.order.Remove(e.elem)
		}
	}
	close(e.ready)
	// The miss that started this build could not evict the builds still
	// in flight beside it; trim now that one of them has finished.
	c.evictLocked()
	c.mu.Unlock()
	return e.engine, e.err
}

// holds reports whether an entry for the class and seed, under any spec,
// is cached or being built: a build for it now would be a hit.
func (c *EngineCache) holds(class topology.AreaClass, seed int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.entries {
		if k.Class == class && k.Seed == seed {
			return true
		}
	}
	return false
}

// evictLocked trims completed entries beyond capacity, oldest first.
// In-flight builds are skipped: their waiters hold the entry pointer and
// evicting them would spawn duplicate builds. It runs on every miss and
// after every build, so the cache is back within capacity once the
// builds in flight have finished.
func (c *EngineCache) evictLocked() {
	for elem := c.order.Back(); c.order.Len() > c.cap && elem != nil; {
		prev := elem.Prev()
		e := elem.Value.(*cacheEntry)
		select {
		case <-e.ready:
			delete(c.entries, e.key)
			c.order.Remove(elem)
			c.stats.Evictions++
		default: // still building
		}
		elem = prev
	}
}

// Stats snapshots the cache counters.
func (c *EngineCache) Stats() CacheStats {
	c.mu.Lock()
	s := c.stats
	s.Size = c.order.Len()
	s.Capacity = c.cap
	var cores SharedCoreStats
	seen := make(map[*netmodel.ModelCore]bool)
	seenRows := make(map[*netmodel.LinkRows]bool)
	for elem := c.order.Front(); elem != nil; elem = elem.Next() {
		e := elem.Value.(*cacheEntry)
		select {
		case <-e.ready:
		default:
			continue // still building
		}
		if e.engine == nil || e.engine.Model == nil {
			continue
		}
		if rows := e.engine.Model.LinkRows(); !seenRows[rows] {
			seenRows[rows] = true
			cores.LinkRowBytes += rows.Bytes()
		}
		mc := e.engine.Model.Core()
		if mc == nil || seen[mc] {
			continue
		}
		seen[mc] = true
		cores.Cores++
		cores.Refs += mc.Refs()
		cores.Bytes += mc.Bytes()
	}
	if cores.Cores > 0 {
		s.SharedCores = &cores
	}
	c.mu.Unlock()
	if c.snapshots != nil {
		snap := c.snapshots.Stats()
		s.Snapshot = &snap
	}
	return s
}
