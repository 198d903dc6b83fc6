// Per-tilt link-gain rows: the in-memory analogue of the paper's "one
// path-loss matrix per sector per tilt". A sector's row at a tilt index
// holds the linear link gain, DbmToMw of entryLinkDB, of each of its
// entries in sectorEntries order. Rows are built lazily, the first time
// any state, fork or scorer over the Model asks for that (sector, tilt),
// and are immutable once published, so a retilt installs a shared row
// header instead of paying one exp per entry.
//
// The cache belongs to the Model, not the ModelCore: link budgets depend
// on the network's tilt tables and on the Model's installed link tables,
// neither of which the core (or the snapshot key) covers. ForkUsers
// shares the cache along with the link tables; InstallLinkTable keeps
// every lineage on rows of its own tables (see there).
package netmodel

import (
	"sync/atomic"

	"magus/internal/topology"
	"magus/internal/units"
)

// LinkRows caches immutable linear link-gain rows per (sector, tilt
// index). Any number of goroutines may read and fill it at once.
type LinkRows struct {
	slots [][]atomic.Pointer[[]float64] // [sector][tilt index - MinIndex]
}

func newLinkRows(net *topology.Network) *LinkRows {
	r := &LinkRows{slots: make([][]atomic.Pointer[[]float64], net.NumSectors())}
	for b := range r.slots {
		r.slots[b] = make([]atomic.Pointer[[]float64], net.Sectors[b].Tilts.NumSettings())
	}
	return r
}

// Bytes returns the resident size of the rows built so far. It is
// bounded by entries × tilt settings × 8 B and grows only with the
// tilts a search or window actually visits.
func (r *LinkRows) Bytes() int64 {
	var n int64
	for b := range r.slots {
		for i := range r.slots[b] {
			if row := r.slots[b][i].Load(); row != nil {
				n += int64(len(*row)) * 8
			}
		}
	}
	return n
}

// clearSector drops sector b's rows, so the next request rebuilds them
// from the Model's current link tables. States keep the rows they hold.
func (r *LinkRows) clearSector(b int) {
	for i := range r.slots[b] {
		r.slots[b][i].Store(nil)
	}
}

// LinkRows returns the model's row cache, shared with the ForkUsers
// forks that share its link tables.
func (m *Model) LinkRows() *LinkRows { return m.rows }

// LinkRowBytes returns the resident size of the model's cached rows.
func (m *Model) LinkRowBytes() int64 { return m.rows.Bytes() }

// gainRow returns sector b's link-gain row at tilt index idx, which must
// lie in the sector's tilt table (a Config keeps every index there). A
// miss builds the row and publishes it with a compare-and-swap; a
// goroutine that loses the race adopts the winner's row, so every state
// at that tilt shares one row. The row must not be written.
func (m *Model) gainRow(b, idx int) []float64 {
	tilts := m.Net.Sectors[b].Tilts
	slot := &m.rows.slots[b][idx-tilts.MinIndex()]
	if row := slot.Load(); row != nil {
		return *row
	}
	tilt := tilts.Degrees(idx)
	entries := m.core.sectorEntries[b]
	row := make([]float64, len(entries))
	for i, ref := range entries {
		row[i] = units.DbmToMw(m.entryLinkDB(int(ref.Pos), tilt))
	}
	if slot.CompareAndSwap(nil, &row) {
		return row
	}
	return *slot.Load()
}
