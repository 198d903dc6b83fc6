// ModelCore: the immutable, shareable half of a Model. The contributor
// arrays, the per-sector entry index and the grid-cell center table are
// identical for an engine's search workers and simulation forks, so they
// live in one ModelCore shared read-only by all of them. What stays
// per-Model is small and mutable: the UE density, the tabulated
// link-table overrides, and everything a State owns. An engine's memory
// therefore grows with its workers and forks only through State, not
// through the radio substrate.
//
// A core can be backed directly by an on-disk snapshot's bytes (mmap or
// a single file read; see internal/modelcache): the contributor arrays
// then alias the snapshot buffer instead of being materialized, and the
// backing is released when the core is garbage-collected. Cores are
// immutable after construction.
package netmodel

import (
	"fmt"
	"runtime"
	"sync"

	"magus/internal/geo"
)

// ModelCore holds the immutable per-market analysis substrate shared by
// every Model (and therefore every State, engine and clone) over the
// same build inputs.
type ModelCore struct {
	// Contributor entries, grouped by grid: entries for grid g occupy
	// positions gridStart[g] .. gridStart[g+1].
	contribSector []int32
	contribBaseDB []float32
	contribElev   []float32
	gridStart     []int32

	// sectorEntries[b] lists every contributor entry owned by sector b,
	// cell-major (ascending grid); entryIdx[pos] is entry pos's index in
	// its sector's list, so a grid-major scan reads its received power as
	// powerMw[b] * rows[b].gain[entryIdx[pos]]. A per-entry bitset keeps
	// sector b's entries in words entryWords[b] .. entryWords[b+1], one
	// bit per entry in list order (fragileSet.entryBits).
	sectorEntries [][]entryRef
	entryIdx      []int32
	entryWords    []int32

	// cellCenters is the flat per-cell center table, precomputed once so
	// the build loop and the per-cell queries (GridsIn,
	// InterferingSectorCount) skip the div/mod plus float math of
	// Grid.CellCenterIdx per lookup.
	cellCenters []geo.Point

	numCells   int
	numSectors int

	// Snapshot backing. When non-nil the contributor arrays alias a
	// snapshot's bytes; release unmaps/frees them once the core is
	// collected.
	releaseOnce sync.Once
	release     func()
}

// NewCore validates and adopts previously built contributor arrays as
// an immutable core for a grid with numCells cells (grid is used for
// the cell-center table) and a network of numSectors sectors. The
// arrays are adopted without copying: the caller must not mutate them
// afterwards. They must have been built from the same inputs the core
// will be used with — the snapshot cache guarantees this by keying
// snapshots on a hash of them; handing mismatched arrays that happen to
// pass the shape checks yields a silently wrong model. Besides the
// shapes and sector bounds, each cell's sectors must be strictly
// ascending, the order the build writes them in.
func NewCore(grid *geo.Grid, numSectors int, sector []int32, baseDB, elev []float32, gridStart []int32) (*ModelCore, error) {
	numCells := grid.NumCells()
	if len(gridStart) != numCells+1 {
		return nil, fmt.Errorf("netmodel: snapshot gridStart has %d entries, grid has %d cells", len(gridStart), numCells)
	}
	if gridStart[0] != 0 {
		return nil, fmt.Errorf("netmodel: snapshot gridStart does not begin at 0")
	}
	if len(baseDB) != len(sector) || len(elev) != len(sector) {
		return nil, fmt.Errorf("netmodel: snapshot column lengths disagree: %d/%d/%d",
			len(sector), len(baseDB), len(elev))
	}
	if int(gridStart[numCells]) != len(sector) {
		return nil, fmt.Errorf("netmodel: snapshot gridStart ends at %d, have %d entries",
			gridStart[numCells], len(sector))
	}
	for g := 0; g < numCells; g++ {
		if gridStart[g+1] < gridStart[g] {
			return nil, fmt.Errorf("netmodel: snapshot gridStart decreases at cell %d", g)
		}
	}
	for _, b := range sector {
		if b < 0 || int(b) >= numSectors {
			return nil, fmt.Errorf("netmodel: snapshot references sector %d of %d", b, numSectors)
		}
	}
	// NewState's sector-major pass reproduces each grid's own scan only
	// when a grid lists its sectors in ascending order, as the build
	// does.
	for g := 0; g < numCells; g++ {
		for pos := gridStart[g] + 1; pos < gridStart[g+1]; pos++ {
			if sector[pos] <= sector[pos-1] {
				return nil, fmt.Errorf("netmodel: snapshot cell %d lists sector %d after %d, want strictly ascending",
					g, sector[pos], sector[pos-1])
			}
		}
	}
	core := &ModelCore{
		contribSector: sector,
		contribBaseDB: baseDB,
		contribElev:   elev,
		gridStart:     gridStart,
		numCells:      numCells,
		numSectors:    numSectors,
		cellCenters:   cellCenterTable(grid),
	}
	core.indexSectorEntries()
	return core, nil
}

// newCoreUnchecked adopts arrays the build loop itself just produced
// (already consistent by construction), reusing the cell-center table
// the build already computed.
func newCoreUnchecked(grid *geo.Grid, numSectors int, centers []geo.Point, sector []int32, baseDB, elev []float32, gridStart []int32) *ModelCore {
	core := &ModelCore{
		contribSector: sector,
		contribBaseDB: baseDB,
		contribElev:   elev,
		gridStart:     gridStart,
		numCells:      grid.NumCells(),
		numSectors:    numSectors,
		cellCenters:   centers,
	}
	core.indexSectorEntries()
	return core
}

// cellCenterTable precomputes every cell's center point.
func cellCenterTable(grid *geo.Grid) []geo.Point {
	centers := make([]geo.Point, grid.NumCells())
	for g := range centers {
		centers[g] = grid.CellCenterIdx(g)
	}
	return centers
}

// indexSectorEntries derives the per-sector entry lists, each entry's
// index in its list and each list's word range in a per-entry bitset
// from the merged contributor arrays, the lists in the same order the
// historical per-cell append produced: cell-major, ascending sector ID
// within a cell.
func (c *ModelCore) indexSectorEntries() {
	counts := make([]int32, c.numSectors)
	for _, b := range c.contribSector {
		counts[b]++
	}
	c.sectorEntries = make([][]entryRef, c.numSectors)
	c.entryWords = make([]int32, c.numSectors+1)
	for b := range c.sectorEntries {
		c.sectorEntries[b] = make([]entryRef, 0, counts[b])
		c.entryWords[b+1] = c.entryWords[b] + (counts[b]+63)/64
	}
	c.entryIdx = make([]int32, len(c.contribSector))
	for g := 0; g < c.numCells; g++ {
		for pos := c.gridStart[g]; pos < c.gridStart[g+1]; pos++ {
			b := c.contribSector[pos]
			c.entryIdx[pos] = int32(len(c.sectorEntries[b]))
			c.sectorEntries[b] = append(c.sectorEntries[b], entryRef{Grid: int32(g), Pos: pos})
		}
	}
}

// SetBacking records that the contributor arrays alias an external
// buffer (an mmap'd or heap-loaded snapshot) and installs the function
// that releases it. The release runs exactly once, when the core is
// garbage-collected — Models hold their core strongly, so no live
// engine can observe a released backing. Call at most once, before the
// core is shared.
func (c *ModelCore) SetBacking(release func()) {
	c.release = release
	if release != nil {
		runtime.SetFinalizer(c, func(core *ModelCore) {
			core.releaseOnce.Do(core.release)
		})
	}
}

// NumContributors returns the number of (grid, sector) contributor
// entries in the core.
func (c *ModelCore) NumContributors() int { return len(c.contribSector) }

// NumCells returns the number of grid cells the core was built over.
func (c *ModelCore) NumCells() int { return c.numCells }

// NumSectors returns the sector count the core was built for.
func (c *ModelCore) NumSectors() int { return c.numSectors }

// Bytes estimates the resident size of the shared substrate: the
// contributor arrays plus the derived per-sector index, entry indexes
// and cell-center table. This is the memory N engines over one market
// pay once instead of N times. A core built in memory and one loaded
// from its snapshot count the same: the arrays by their lengths,
// whatever buffer backs them.
func (c *ModelCore) Bytes() int64 {
	arrays := int64(len(c.contribSector))*4 + int64(len(c.contribBaseDB))*4 +
		int64(len(c.contribElev))*4 + int64(len(c.gridStart))*4
	derived := int64(len(c.cellCenters))*16 + int64(len(c.contribSector))*8 + int64(len(c.entryIdx))*4 +
		int64(len(c.entryWords))*4
	return arrays + derived
}
