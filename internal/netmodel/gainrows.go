// Per-tilt link-gain rows: the in-memory analogue of the paper's "one
// path-loss matrix per sector per tilt". A sector's row at a tilt index
// holds the linear link gain, DbmToMw of entryLinkDB, of each of its
// entries in sectorEntries order. Rows are built lazily, the first time
// any state, fork or scorer over the Model asks for that (sector, tilt),
// and are immutable once published, so a retilt installs a shared row
// pointer instead of paying one exp per entry.
//
// A row also keeps, built lazily the first time a power move scores it,
// its nonzero entries grouped by binary exponent (the band order): the
// entries whose gain exceeds a power move's weak-gain bound are then the
// groups above the bound's exponent plus a filtered pass over its own
// group, found without reading the rest of the row (see strongMarks).
// Rows that only tilt, on/off or NewState passes read never pay for it.
//
// The cache belongs to the Model, not the ModelCore: link budgets depend
// on the network's tilt tables and on the Model's installed link tables,
// neither of which the core (or the snapshot key) covers. ForkUsers
// shares the cache along with the link tables; InstallLinkTable keeps
// every lineage on rows of its own tables (see there).
package netmodel

import (
	"math"
	"math/bits"
	"sync/atomic"

	"magus/internal/topology"
	"magus/internal/units"
)

// linkRow is one sector's linear link-gain row at one tilt. gain is
// immutable once the row is published; bands is built at most once per
// row and published atomically.
type linkRow struct {
	gain  []float64
	bands atomic.Pointer[gainBands]
}

// gainBands is a row's band order: order lists the row's nonzero
// entries by descending binary exponent (the exponent field of the
// float64), ascending index within one exponent; start[k] is the offset
// in order of exponent hi−k, and start[len(start)−1] == len(order).
type gainBands struct {
	order []int32
	start []int32
	hi    int
}

// LinkRows caches immutable linear link-gain rows per (sector, tilt
// index). Any number of goroutines may read and fill it at once.
type LinkRows struct {
	slots [][]atomic.Pointer[linkRow] // [sector][tilt index - MinIndex]
}

func newLinkRows(net *topology.Network) *LinkRows {
	r := &LinkRows{slots: make([][]atomic.Pointer[linkRow], net.NumSectors())}
	for b := range r.slots {
		r.slots[b] = make([]atomic.Pointer[linkRow], net.Sectors[b].Tilts.NumSettings())
	}
	return r
}

// Bytes returns the resident size of the rows built so far: 8 B per
// entry for the gains, and for each row with a band order 4 B per
// nonzero entry plus 4 B per binary exponent the row spans. It grows
// only with the tilts a search or window actually visits.
func (r *LinkRows) Bytes() int64 {
	var n int64
	for b := range r.slots {
		for i := range r.slots[b] {
			row := r.slots[b][i].Load()
			if row == nil {
				continue
			}
			n += int64(len(row.gain)) * 8
			if bands := row.bands.Load(); bands != nil {
				n += int64(len(bands.order)+len(bands.start)) * 4
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
func (m *Model) gainRow(b, idx int) *linkRow {
	tilts := m.Net.Sectors[b].Tilts
	slot := &m.rows.slots[b][idx-tilts.MinIndex()]
	if row := slot.Load(); row != nil {
		return row
	}
	tilt := tilts.Degrees(idx)
	entries := m.core.sectorEntries[b]
	row := &linkRow{gain: make([]float64, len(entries))}
	for i, ref := range entries {
		row.gain[i] = units.DbmToMw(m.entryLinkDB(int(ref.Pos), tilt))
	}
	if slot.CompareAndSwap(nil, row) {
		return row
	}
	return slot.Load()
}

// gainExp returns the exponent field of a non-negative float64; it
// orders non-negative values: a larger field is a larger value.
func gainExp(v float64) int { return int(math.Float64bits(v)>>52) & 0x7ff }

// bandOrder returns the row's band order, building it on first use.
// Concurrent first users build the same order; the first published one
// serves every later call.
func (r *linkRow) bandOrder() *gainBands {
	if bands := r.bands.Load(); bands != nil {
		return bands
	}
	bands := buildBands(r.gain)
	if r.bands.CompareAndSwap(nil, bands) {
		return bands
	}
	return r.bands.Load()
}

// buildBands groups the nonzero entries of gain by exponent with a
// counting sort, O(len(gain)) and no comparisons: count each exponent,
// lay the groups out from the largest exponent down, then place each
// entry in ascending index order, so each group keeps its entries in
// ascending order. The order and the group starts share one
// allocation.
func buildBands(gain []float64) *gainBands {
	var next [0x800]int32 // per exponent: its entry count, then its next free slot
	var seen uint64       // bit j: some nonzero entry has an exponent in [32j, 32j+32)
	n := 0
	for _, v := range gain {
		if v != 0 {
			e := gainExp(v)
			next[e]++
			seen |= 1 << (e >> 5 & 63)
			n++
		}
	}
	if n == 0 {
		return &gainBands{start: []int32{0}}
	}
	// The extreme exponents lie in the lowest and highest seen blocks of
	// 32, so finding them reads at most 64 counts.
	lo := bits.TrailingZeros64(seen) << 5
	for next[lo] == 0 {
		lo++
	}
	hi := (63-bits.LeadingZeros64(seen))<<5 | 31
	for next[hi] == 0 {
		hi--
	}
	buf := make([]int32, n+hi-lo+2)
	order, start := buf[:n:n], buf[n:]
	for k := range hi - lo + 1 {
		e := hi - k
		start[k+1] = start[k] + next[e]
		next[e] = start[k]
	}
	for i, v := range gain {
		if v != 0 {
			e := gainExp(v)
			order[next[e]] = int32(i)
			next[e]++
		}
	}
	return &gainBands{order: order, start: start, hi: hi}
}

// strongMarks sets, in the entry bitset marks, the bit of every entry
// whose gain is not at most t: every nonzero entry of a group above t's
// exponent, and the entries of t's own group with gain > t. A NaN or
// negative t marks every nonzero entry.
func (r *linkRow) strongMarks(t float64, marks []uint64) {
	bands := r.bandOrder()
	groups := len(bands.start) - 1
	k := groups // t lies below every group: all of them are strong
	if t >= 0 {
		k = min(bands.hi-gainExp(t), groups)
	}
	if k < 0 {
		return
	}
	for _, i := range bands.order[:bands.start[k]] {
		marks[i>>6] |= 1 << (i & 63)
	}
	if k == groups {
		return
	}
	gain := r.gain
	for _, i := range bands.order[bands.start[k]:bands.start[k+1]] {
		if gain[i] > t {
			marks[i>>6] |= 1 << (i & 63)
		}
	}
}
