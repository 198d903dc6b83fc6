// Contributor construction: the most expensive step of model building
// (the in-memory analogue of generating the paper's Atoll path-loss
// matrices). Two optimizations over the naive O(gridCells x sectors)
// scan, both exactly output-preserving:
//
//  1. A spatial bucket index over sector positions (bucket edge =
//     CutoffRadiusM) so each grid cell only visits sectors in its own
//     and the eight surrounding buckets — every sector within the
//     cutoff is guaranteed to be among them, and the per-pair distance
//     check is unchanged, so the kept set is identical to the full scan.
//  2. The grid is sharded over row ranges across BuildWorkers
//     goroutines, each appending to a private shard; the shards are
//     merged back in grid order. Within a cell candidates are visited
//     in ascending sector ID — the full scan's order — so the merged
//     contributor arrays are bit-identical to a sequential build
//     whatever the worker count (the golden test in
//     parallel_build_test.go enforces this).
//
// The per-pair work calls only pure read-only methods on the SPM and
// terrain map (see the concurrency note in internal/propagation), so
// parallel workers need no synchronization.
package netmodel

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"magus/internal/geo"
	"magus/internal/propagation"
	"magus/internal/topology"
	"magus/internal/units"
)

// sectorIndex buckets sector IDs on a uniform lattice of edge
// CutoffRadiusM covering the grid and every sector position. For a grid
// cell in bucket (bx, by), every sector within the cutoff radius lies in
// one of the nine buckets around (bx, by); candidates(bx, by) returns
// their IDs in ascending order, precomputed per bucket so the per-cell
// cost is one slice lookup.
type sectorIndex struct {
	minX, minY float64
	edge       float64
	cols, rows int
	merged     [][]int32 // per bucket: ascending sector IDs of the 3x3 neighborhood
}

func newSectorIndex(net *topology.Network, grid *geo.Grid, edge float64) *sectorIndex {
	minX, minY := grid.Bounds.Min.X, grid.Bounds.Min.Y
	maxX, maxY := grid.Bounds.Max.X, grid.Bounds.Max.Y
	for i := range net.Sectors {
		p := net.Sectors[i].Pos
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	idx := &sectorIndex{
		minX: minX,
		minY: minY,
		edge: edge,
		cols: int((maxX-minX)/edge) + 1,
		rows: int((maxY-minY)/edge) + 1,
	}
	buckets := make([][]int32, idx.cols*idx.rows)
	for i := range net.Sectors {
		b := idx.bucketAt(net.Sectors[i].Pos)
		buckets[b] = append(buckets[b], int32(i)) // ascending: i is ascending
	}
	idx.merged = make([][]int32, idx.cols*idx.rows)
	for by := 0; by < idx.rows; by++ {
		for bx := 0; bx < idx.cols; bx++ {
			var cand []int32
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := bx+dx, by+dy
					if nx < 0 || nx >= idx.cols || ny < 0 || ny >= idx.rows {
						continue
					}
					cand = append(cand, buckets[ny*idx.cols+nx]...)
				}
			}
			slices.Sort(cand) // each sector is in exactly one bucket: no duplicates
			idx.merged[by*idx.cols+bx] = cand
		}
	}
	return idx
}

// bucketAt returns the flat bucket index of p, clamped to the lattice.
func (idx *sectorIndex) bucketAt(p geo.Point) int {
	bx := int((p.X - idx.minX) / idx.edge)
	by := int((p.Y - idx.minY) / idx.edge)
	if bx < 0 {
		bx = 0
	} else if bx >= idx.cols {
		bx = idx.cols - 1
	}
	if by < 0 {
		by = 0
	} else if by >= idx.rows {
		by = idx.rows - 1
	}
	return by*idx.cols + bx
}

// candidates returns the sectors that can possibly be within the cutoff
// of a cell centered at p, in ascending ID order.
func (idx *sectorIndex) candidates(p geo.Point) []int32 {
	return idx.merged[idx.bucketAt(p)]
}

// buildShard holds one worker's private output for a contiguous cell
// range: the contributor columns plus the entry count per cell, from
// which the merge step derives the global gridStart offsets.
type buildShard struct {
	sector []int32
	baseDB []float32
	elev   []float32
	counts []int32 // entries per cell, indexed by (g - lo)
}

// siteGeometry is the per-site part of a cell's link budget. A site's
// sectors share Pos and HeightM and sit at consecutive IDs, so they come
// one after another in a cell's candidates; everything that depends on
// the antenna position alone is computed once for the first of them and
// reused by the rest.
type siteGeometry struct {
	pos      geo.Point
	heightM  float64
	set      bool
	inRange  bool    // within the cutoff radius
	pathLoss float64 // SPM.PathLossDB toward the cell
	bearing  float64 // compass bearing toward the cell
	elevSet  bool
	elev     float64 // elevation toward the cell, filled on first use
}

// buildCellRange evaluates cells [lo, hi) exactly as the historical
// sequential loop did, restricted to the index's candidate sectors.
// Geometry that depends only on the antenna position is shared across a
// site's sectors (see siteGeometry); each sector adds only its gain and
// horizontal pattern, in SPM.SectorBase's operation order, so the
// entries are bit-identical to a per-sector SectorBase loop.
func (m *Model) buildCellRange(centers []geo.Point, idx *sectorIndex, lo, hi int, floorDbm float64) *buildShard {
	sh := &buildShard{counts: make([]int32, hi-lo)}
	cutoff := m.params.CutoffRadiusM
	for g := lo; g < hi; g++ {
		center := centers[g]
		var site siteGeometry
		for _, b := range idx.candidates(center) {
			sec := &m.Net.Sectors[b]
			if !site.set || sec.Pos != site.pos || sec.HeightM != site.heightM {
				site = siteGeometry{pos: sec.Pos, heightM: sec.HeightM, set: true}
				site.inRange = sec.Pos.DistanceTo(center) <= cutoff
				if site.inRange {
					site.pathLoss = m.SPM.PathLossDB(sec.Pos, sec.HeightM, center)
					site.bearing = sec.Pos.BearingTo(center)
				}
			}
			if !site.inRange {
				continue
			}
			base := site.pathLoss + sec.Pattern.MaxGainDBi + sec.Pattern.HorizontalAttenuation(site.bearing-sec.AzimuthDeg)
			// Best-case RP: max power, zero vertical attenuation.
			if sec.MaxPowerDbm+base < floorDbm {
				continue
			}
			if !site.elevSet {
				if m.params.ApproxTiltElevation {
					site.elev = propagation.FlatEarthElevationDeg(sec, center)
				} else {
					site.elev = m.SPM.ElevationDeg(sec, center)
				}
				site.elevSet = true
			}
			sh.sector = append(sh.sector, b)
			sh.baseDB = append(sh.baseDB, float32(base))
			sh.elev = append(sh.elev, float32(site.elev))
			sh.counts[g-lo]++
		}
	}
	return sh
}

// buildContributors constructs the contributor arrays, sharding the grid
// over row ranges across params.BuildWorkers goroutines (0 = GOMAXPROCS,
// 1 = sequential). Every worker count produces bit-identical arrays. The
// result is an immutable ModelCore ready to be shared.
func (m *Model) buildContributors() *ModelCore {
	numCells := m.Grid.NumCells()
	floorDbm := units.MwToDbm(m.noiseMw) - m.params.FloorBelowNoiseDB
	idx := newSectorIndex(m.Net, m.Grid, m.params.CutoffRadiusM)
	centers := cellCenterTable(m.Grid)

	workers := m.params.BuildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m.Grid.Rows {
		workers = m.Grid.Rows
	}
	if workers < 1 {
		workers = 1
	}

	shards := make([]*buildShard, workers)
	if workers == 1 {
		shards[0] = m.buildCellRange(centers, idx, 0, numCells, floorDbm)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := (m.Grid.Rows * w / workers) * m.Grid.Cols
			hi := (m.Grid.Rows * (w + 1) / workers) * m.Grid.Cols
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				shards[w] = m.buildCellRange(centers, idx, lo, hi, floorDbm)
			}(w, lo, hi)
		}
		wg.Wait()
	}

	// Deterministic merge: shards cover disjoint, ordered cell ranges, so
	// concatenating them in shard order reproduces the sequential layout.
	total := 0
	for _, sh := range shards {
		total += len(sh.sector)
	}
	sector := make([]int32, 0, total)
	baseDB := make([]float32, 0, total)
	elev := make([]float32, 0, total)
	gridStart := make([]int32, numCells+1)
	g := 0
	for _, sh := range shards {
		sector = append(sector, sh.sector...)
		baseDB = append(baseDB, sh.baseDB...)
		elev = append(elev, sh.elev...)
		for _, n := range sh.counts {
			gridStart[g+1] = gridStart[g] + n
			g++
		}
	}
	return newCoreUnchecked(m.Grid, m.Net.NumSectors(), centers, sector, baseDB, elev, gridStart)
}
