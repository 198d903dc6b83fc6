// Package modelcache persists built netmodel contributor arrays — the
// in-memory analogue of the paper's Atoll path-loss matrices, and by
// far the most expensive part of engine construction — as
// content-addressed snapshots on disk. A snapshot file is named by a
// hash of everything the build depends on (topology geometry, SPM
// constants, terrain content, grid region and model parameters), so a
// warm process restart or an engine-cache miss reloads the arrays in
// milliseconds instead of re-scanning every (grid cell, sector) pair;
// any input change produces a different key and naturally invalidates
// the old file.
//
// Files are versioned, checksummed, and written atomically (temp file +
// rename in the same directory), so a crash mid-write can never leave a
// half-snapshot that later loads: corrupt, truncated, stale or
// version-mismatched files are detected, discarded and rebuilt.
// Concurrent LoadOrBuild calls for the same key are single-flighted —
// one caller builds and stores, the rest wait and then load the fresh
// snapshot, so every caller still gets an independent *netmodel.Model.
package modelcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"magus/internal/geo"
	"magus/internal/netmodel"
	"magus/internal/propagation"
	"magus/internal/topology"
)

// Stats is a point-in-time snapshot of a cache's counters. Hits counts
// LoadOrBuild calls served from a snapshot file (including single-flight
// followers that loaded the leader's fresh snapshot); Builds counts
// full model constructions actually executed, so Builds <= Misses
// always. Errors counts snapshots discarded as corrupt, truncated,
// stale or version-mismatched — each such discard falls back to a
// rebuild, never to a failure. MmapLoads counts snapshot loads whose
// backing is a read-only memory mapping rather than a heap read.
type Stats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Builds       int64 `json:"builds"`
	Stores       int64 `json:"stores"`
	Errors       int64 `json:"errors"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	MmapLoads    int64 `json:"mmap_loads"`
}

// Cache is an on-disk snapshot store rooted at one directory. The zero
// of *Cache (nil) is valid and means "no cache": every method is
// nil-safe and LoadOrBuild degrades to a plain build, so call sites can
// wire an optional cache without branching.
type Cache struct {
	dir string

	hits         atomic.Int64
	misses       atomic.Int64
	builds       atomic.Int64
	stores       atomic.Int64
	errs         atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	mmapLoads    atomic.Int64

	mu      sync.Mutex
	flights map[string]chan struct{} // closed when the keyed build+store finishes
}

// Open returns a cache rooted at dir, creating the directory if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("modelcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelcache: %w", err)
	}
	return &Cache{
		dir:     dir,
		flights: make(map[string]chan struct{}),
	}, nil
}

// Dir returns the cache's root directory ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Builds:       c.builds.Load(),
		Stores:       c.stores.Load(),
		Errors:       c.errs.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		MmapLoads:    c.mmapLoads.Load(),
	}
}

// Key returns the content address of the model these inputs would
// build: a hex SHA-256 over the grid region, the build-relevant model
// parameters, every sector's build-relevant geometry, the SPM constants
// and the terrain fingerprint. Params.Link and Params.BuildWorkers are
// deliberately excluded — neither affects the contributor arrays.
func Key(net *topology.Network, spm *propagation.SPM, region geo.Rect, params netmodel.Params) string {
	h := sha256.New()
	var buf [8]byte
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wb := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	h.Write([]byte("magus-model-key-v1"))
	wf(region.Min.X)
	wf(region.Min.Y)
	wf(region.Max.X)
	wf(region.Max.Y)
	wf(params.CellSizeM)
	wf(params.BandwidthHz)
	wf(params.NoiseFigureDB)
	wf(params.CutoffRadiusM)
	wf(params.FloorBelowNoiseDB)
	wb(params.ApproxTiltElevation)
	wf(float64(net.NumSectors()))
	for i := range net.Sectors {
		sec := &net.Sectors[i]
		wf(sec.Pos.X)
		wf(sec.Pos.Y)
		wf(sec.AzimuthDeg)
		wf(sec.HeightM)
		wf(sec.MaxPowerDbm)
		wf(sec.Pattern.MaxGainDBi)
		wf(sec.Pattern.HorizBeamwidthDeg)
		wf(sec.Pattern.VertBeamwidthDeg)
		wf(sec.Pattern.FrontBackDB)
		wf(sec.Pattern.SideLobeLimitDB)
	}
	wf(spm.K1)
	wf(spm.K2)
	wf(spm.K3)
	wf(spm.MinDistanceM)
	wf(spm.FrequencyHz)
	wf(spm.JitterDB)
	wf(float64(spm.JitterSeed))
	wf(spm.ClutterWeight)
	wf(spm.DiffractionWeight)
	if spm.Terrain != nil {
		binary.LittleEndian.PutUint64(buf[:], spm.Terrain.Fingerprint())
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LoadOrBuild returns the model for the given inputs: from a valid
// snapshot (whose bytes the new core aliases, mmap'd where possible),
// otherwise by building it and storing a snapshot for next time.
// Concurrent calls with the same key share one build; the followers
// then load the leader's fresh snapshot, so every caller receives its
// own independent model and core. The cache holds no model in memory:
// keeping one engine per market is the engine cache's job. Snapshot
// failures of any kind fall back to building — LoadOrBuild fails only
// when the build itself does. A nil cache builds directly.
func (c *Cache) LoadOrBuild(net *topology.Network, spm *propagation.SPM, region geo.Rect, params netmodel.Params) (*netmodel.Model, error) {
	if c == nil {
		return netmodel.NewModel(net, spm, region, params)
	}
	key := Key(net, spm, region, params)
	path := filepath.Join(c.dir, key+".snap")

	if m, ok := c.tryLoad(path, key, net, spm, region, params); ok {
		return m, nil
	}
	c.misses.Add(1)

	c.mu.Lock()
	if done, inFlight := c.flights[key]; inFlight {
		c.mu.Unlock()
		<-done
		// The leader stored its snapshot (or failed; then we build).
		if m, ok := c.tryLoad(path, key, net, spm, region, params); ok {
			return m, nil
		}
		return c.build(key, net, spm, region, params, "")
	}
	done := make(chan struct{})
	c.flights[key] = done
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(done)
	}()
	return c.build(key, net, spm, region, params, path)
}

// tryLoad attempts to deserialize path into a model, counting a hit on
// success. Corrupt or stale files are removed and counted as errors;
// absence is silent. ok=false means the caller should build.
func (c *Cache) tryLoad(path, key string, net *topology.Network, spm *propagation.SPM, region geo.Rect, params netmodel.Params) (*netmodel.Model, bool) {
	m, n, mapped, err := loadSnapshot(path, key, net, spm, region, params)
	if err == nil {
		c.hits.Add(1)
		c.bytesRead.Add(n)
		if mapped {
			c.mmapLoads.Add(1)
		}
		return m, true
	}
	if !errors.Is(err, fs.ErrNotExist) {
		c.errs.Add(1)
		os.Remove(path) // the rebuild below rewrites it atomically
	}
	return nil, false
}

// build constructs the model and, when path is non-empty, stores a
// snapshot of it. Store failures are counted but not returned: the
// model in hand is valid regardless.
func (c *Cache) build(key string, net *topology.Network, spm *propagation.SPM, region geo.Rect, params netmodel.Params, path string) (*netmodel.Model, error) {
	c.builds.Add(1)
	m, err := netmodel.NewModel(net, spm, region, params)
	if err != nil || path == "" {
		return m, err
	}
	if n, err := storeSnapshot(path, key, m); err != nil {
		c.errs.Add(1)
	} else {
		c.stores.Add(1)
		c.bytesWritten.Add(n)
	}
	return m, nil
}
