// Batched, read-only speculative scoring: the utility delta of many
// candidate moves evaluated against one frozen State, without applying
// anything.
//
// SpeculateBatch computes what WOULD change — per-grid new serving
// sector, SINR and rate, per-sector load shifts — in epoch-marked
// scratch, folds the per-grid utility deltas into a sum, and never
// touches the state. One pass, no revert; a power-only move costs one
// exponential per sector and one multiply per entry, where
// apply-and-revert pays the same twice plus a utility scan.
//
// A touched grid's old per-UE utility is read from the Utility memo
// (cacheU) when the memo belongs to the same objective and still holds
// the grid's current rate, and recomputed as u(rate) otherwise. Both are
// u of the same rate, so the delta does not depend on how warm or stale
// the memo is; a warm memo only saves the recomputation.
//
// Because scoring is read-only, any number of goroutines may score
// batches against the same State concurrently, provided no goroutine is
// in Apply or Utility on that state — the evaluation engine shares one
// State across its whole worker pool this way.
//
// Scratch is recycled through a package-level sync.Pool; arrays are
// epoch-marked so per-move initialization is O(footprint), not O(grid).
//
// An entry's new received power comes from the state's linear-gain link
// rows with the same expression Apply uses, DbmToMw(power) * gain (a
// retilt rebuilds the gains the way newLinkRow does), so per-grid rates
// are bit-identical to an Apply and the delta differs from the
// full-scan oracle only by summation order (≤1e-9 relative, pinned by
// TestSpeculateMatchesFullEvaluation).
package netmodel

import (
	"fmt"
	"sync"

	"magus/internal/config"
	"magus/internal/units"
	"magus/internal/utility"
)

// BatchResult is one candidate's speculative evaluation.
type BatchResult struct {
	// Applied is the change that would take effect after clamping.
	Applied config.Change
	// Delta is the change in overall utility Applied would cause, summed
	// over the grids whose rate it changes. It is exactly 0 when no
	// grid's rate changes (including when Applied.IsZero()), so adding
	// it to an exact full-scan utility never introduces rounding for a
	// move that does nothing.
	Delta float64
	// Err is set when the move itself is invalid (unknown sector).
	Err error
}

// batchScratch holds the epoch-marked per-move working set. An entry of
// gridMark/secMark equals epoch iff the grid/sector is touched by the
// move currently being scored; the value arrays are only meaningful at
// marked indices and are (re)initialized on first touch, so advancing
// the epoch clears the whole scratch in O(1).
type batchScratch struct {
	epoch      uint32
	gridMark   []uint32
	secMark    []uint32
	newTotal   []float64
	newBestMw  []float64
	newBestSec []int32
	newRmax    []float64
	loadDelta  []float64
	grids      []int32 // touched grids, insertion order
	secs       []int32 // touched sectors, insertion order
}

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// ensure sizes the scratch for a model. The pool hands a scratch from
// one market to the next, so growing either side restarts the epoch
// with BOTH mark arrays cleared: a mark kept from before the restart
// would otherwise read as touched once the epoch counts up to it again,
// and the move would be priced from another market's scratch rows.
func (sc *batchScratch) ensure(numCells, numSectors int) {
	if len(sc.gridMark) < numCells || len(sc.secMark) < numSectors {
		cells := max(numCells, len(sc.gridMark))
		secs := max(numSectors, len(sc.secMark))
		sc.gridMark = make([]uint32, cells)
		sc.newTotal = make([]float64, cells)
		sc.newBestMw = make([]float64, cells)
		sc.newBestSec = make([]int32, cells)
		sc.newRmax = make([]float64, cells)
		sc.secMark = make([]uint32, secs)
		sc.loadDelta = make([]float64, secs)
		sc.epoch = 0
	}
	sc.grids = sc.grids[:0]
	sc.secs = sc.secs[:0]
}

// nextMove starts a new epoch (wrapping resets the mark arrays so a
// stale mark from 2^32 moves ago cannot alias).
func (sc *batchScratch) nextMove() {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.gridMark)
		clear(sc.secMark)
		sc.epoch = 1
	}
	sc.grids = sc.grids[:0]
	sc.secs = sc.secs[:0]
}

// touchGrid marks grid g for this move, initializing its scratch row to
// the current state's values; returns true when g was already touched.
func (sc *batchScratch) touchGrid(s *State, g int32) bool {
	if sc.gridMark[g] == sc.epoch {
		return true
	}
	sc.gridMark[g] = sc.epoch
	sc.newTotal[g] = s.totalMw[g]
	sc.newBestMw[g] = s.bestMw[g]
	sc.newBestSec[g] = s.bestSec[g]
	sc.newRmax[g] = s.rmax[g]
	sc.grids = append(sc.grids, g)
	return false
}

// touchSec marks sector b for this move, zeroing its load delta.
func (sc *batchScratch) touchSec(b int32) {
	if sc.secMark[b] != sc.epoch {
		sc.secMark[b] = sc.epoch
		sc.loadDelta[b] = 0
		sc.secs = append(sc.secs, b)
	}
}

// SpeculateBatch scores each candidate move independently against the
// current state without mutating it. Results are appended to out
// (allocated when nil) in move order. The state is only read.
func (s *State) SpeculateBatch(moves []config.Change, u utility.Func, out []BatchResult) []BatchResult {
	sc := batchScratchPool.Get().(*batchScratch)
	sc.ensure(s.Model.Grid.NumCells(), s.Model.Net.NumSectors())
	for _, mv := range moves {
		out = append(out, s.speculateOne(mv, u, sc))
	}
	batchScratchPool.Put(sc)
	return out
}

// clampChange computes, without mutating the configuration, the change
// Cfg.Apply would report for ch — the same clamp arithmetic as
// AdjustPower/AdjustTilt.
func (s *State) clampChange(ch config.Change) config.Change {
	applied := config.Change{Sector: ch.Sector}
	sec := &s.Model.Net.Sectors[ch.Sector]
	if ch.PowerDelta != 0 {
		want := s.Cfg.PowerDbm(ch.Sector) + ch.PowerDelta
		if want > sec.MaxPowerDbm {
			want = sec.MaxPowerDbm
		}
		if want < sec.MinPowerDbm {
			want = sec.MinPowerDbm
		}
		applied.PowerDelta = want - s.Cfg.PowerDbm(ch.Sector)
	}
	if ch.TiltDelta != 0 {
		want := s.Cfg.TiltIndex(ch.Sector) + ch.TiltDelta
		if want > sec.Tilts.MaxIndex() {
			want = sec.Tilts.MaxIndex()
		}
		if want < sec.Tilts.MinIndex() {
			want = sec.Tilts.MinIndex()
		}
		applied.TiltDelta = want - s.Cfg.TiltIndex(ch.Sector)
	}
	off := s.Cfg.Off(ch.Sector)
	applied.TurnOff = ch.TurnOff && !off
	applied.TurnOn = ch.TurnOn && off
	return applied
}

// speculateOne evaluates one move against the frozen state.
func (s *State) speculateOne(mv config.Change, u utility.Func, sc *batchScratch) BatchResult {
	m := s.Model
	if mv.Sector < 0 || mv.Sector >= m.Net.NumSectors() {
		return BatchResult{Err: fmt.Errorf("netmodel: speculate: sector %d out of range", mv.Sector)}
	}
	applied := s.clampChange(mv)
	if applied.IsZero() {
		return BatchResult{Applied: applied}
	}
	b := applied.Sector
	wasOff := s.Cfg.Off(b)
	newOff := wasOff && !applied.TurnOn || applied.TurnOff
	if wasOff && newOff {
		// Power/tilt bookkeeping on an off-air sector: no radio change.
		return BatchResult{Applied: applied}
	}
	sc.nextMove()

	// Entry pass: derive each entry's new received power and resolve the
	// owning grid's new aggregates.
	if !newOff && !wasOff && applied.TiltDelta == 0 && !applied.TurnOff && !applied.TurnOn {
		s.batchPowerSector(sc, b, applied.PowerDelta)
	} else {
		s.batchRecomputeSector(sc, applied, newOff)
	}

	// Load sweep: a sector whose load shifted changes the per-UE rate of
	// every grid it (still) serves, so those grids join the utility delta.
	// The served index covers exactly the grids currently on bb; grids the
	// move hands TO bb changed serving sector, so batchEntry already
	// touched them, and grids the move takes FROM bb are touched the same
	// way and are skipped here by the no-op re-touch.
	for _, bb := range sc.secs {
		if sc.loadDelta[bb] == 0 {
			continue
		}
		for _, g := range s.servedList[bb] {
			sc.touchGrid(s, g)
		}
	}

	// Utility delta over the touched grids, each priced against its old
	// per-UE utility. Loads (and their per-move deltas) are in base UE
	// units; the model's uniform factor converts to effective load at the
	// rate division.
	f := m.ueFactor
	memo := s.cacheName == u.Name
	delta := 0.0
	for _, g := range sc.grids {
		w := m.ue[g]
		if w == 0 {
			continue
		}
		rate := 0.0
		if best := sc.newBestSec[g]; best >= 0 && sc.newRmax[g] > 0 {
			n := s.load[best]
			if sc.secMark[best] == sc.epoch {
				n += sc.loadDelta[best]
			}
			n *= f
			if n < 1 {
				n = 1
			}
			rate = sc.newRmax[g] / n
		}
		old := s.RateBps(int(g))
		oldU := s.cacheU[g]
		if !memo || s.cacheRate[g] != old {
			oldU = u.U(old)
		}
		delta += w * f * (u.U(rate) - oldU)
	}
	return BatchResult{Applied: applied, Delta: delta}
}

// batchPowerSector prices a power-only move on an on-air sector:
// each live entry's new received power is the sector's new power times
// its row's gain, the expression applySectorPower uses, so per-grid
// rates are bit-identical to an Apply and the delta can diverge from a
// full scan only by summation order.
func (s *State) batchPowerSector(sc *batchScratch, b int, deltaDb float64) {
	powerMw := units.DbmToMw(s.Cfg.PowerDbm(b) + deltaDb)
	row := s.linkGain[b]
	for i, ref := range s.Model.core.sectorEntries[b] {
		if s.rpMw[ref.Pos] == 0 {
			continue
		}
		s.batchEntry(sc, ref.Grid, ref.Pos, int32(b), powerMw*row[i])
	}
}

// batchRecomputeSector handles tilt and on/off moves by re-deriving
// each entry's received power exactly as RefreshSector would: a retilt
// computes each entry's gain as newLinkRow does, without installing a
// row.
func (s *State) batchRecomputeSector(sc *batchScratch, applied config.Change, newOff bool) {
	m := s.Model
	b := applied.Sector
	powerMw := units.DbmToMw(s.Cfg.PowerDbm(b) + applied.PowerDelta)
	newTilt := m.Net.Sectors[b].Tilts.Degrees(s.Cfg.TiltIndex(b) + applied.TiltDelta)
	retilt := applied.TiltDelta != 0
	row := s.linkGain[b]
	for i, ref := range m.core.sectorEntries[b] {
		var nrp float64
		if !newOff {
			gain := row[i]
			if retilt {
				gain = units.DbmToMw(m.entryLinkDB(int(ref.Pos), newTilt))
			}
			nrp = powerMw * gain
		}
		s.batchEntry(sc, ref.Grid, ref.Pos, int32(b), nrp)
	}
}

// batchEntry folds one entry's new received power into the scratch:
// grid totals, serving resolution (same tie-breaking as the exact
// rescan: ascending position order, strict improvement), load shifts
// and the new max rate.
func (s *State) batchEntry(sc *batchScratch, g, pos, b32 int32, nrp float64) {
	old := s.rpMw[pos]
	if nrp == old {
		return
	}
	m := s.Model
	newTotal := s.totalMw[g] + (nrp - old)
	var nbSec int32
	var nbMw float64
	switch {
	case s.bestSec[g] == b32:
		if nrp >= old {
			nbSec, nbMw = b32, nrp
		} else {
			// The serving entry weakened: rescan the grid with the new
			// value substituted in.
			nbSec, nbMw = -1, 0
			for p := m.core.gridStart[g]; p < m.core.gridStart[g+1]; p++ {
				rp := s.rpMw[p]
				if p == pos {
					rp = nrp
				}
				if rp > nbMw {
					nbMw = rp
					nbSec = m.core.contribSector[p]
				}
			}
		}
	case nrp > s.bestMw[g] || (nrp == s.bestMw[g] && b32 < s.bestSec[g]):
		nbSec, nbMw = b32, nrp
	default:
		nbSec, nbMw = s.bestSec[g], s.bestMw[g]
	}
	if nbSec == s.bestSec[g] {
		// Same serving sector: if the new SINR stays inside the cached
		// CQI bucket (sinrLo/sinrHi, maintained by updateRate), the
		// quantized max rate is unchanged and the grid's per-UE rate can
		// only change through its serving sector's load — and the load
		// sweep re-touches exactly those grids. Skipping here is what
		// makes a power move cheap: interference shifts that stay inside
		// one CQI bucket (the common case by far) cost two compares, no
		// threshold scan and never a u.U evaluation.
		if nbSec < 0 || nbMw <= 0 {
			if s.rmax[g] == 0 {
				return
			}
		} else {
			interf := newTotal - nbMw
			if interf < 0 {
				interf = 0
			}
			// nbMw/den ∈ [lo, hi) tested multiplicatively: den > 0
			// always (thermal noise), and two multiplies beat a divide.
			den := m.noiseMw + interf
			if nbMw >= s.sinrLo[g]*den && nbMw < s.sinrHi[g]*den {
				return
			}
		}
	}
	rmax := 0.0
	if nbSec >= 0 && nbMw > 0 {
		interf := newTotal - nbMw
		if interf < 0 {
			interf = 0
		}
		rmax = m.rateFromSinr(nbMw / (m.noiseMw + interf))
	}
	if nbSec == s.bestSec[g] && rmax == s.rmax[g] {
		// Bucket edge crossed but the rate landed back on the same value.
		return
	}
	sc.touchGrid(s, g)
	if nbSec != s.bestSec[g] {
		if old := s.bestSec[g]; old >= 0 {
			sc.touchSec(old)
			sc.loadDelta[old] -= m.ue[g]
		}
		if nbSec >= 0 {
			sc.touchSec(nbSec)
			sc.loadDelta[nbSec] += m.ue[g]
		}
	}
	sc.newTotal[g] = newTotal
	sc.newBestMw[g] = nbMw
	sc.newBestSec[g] = nbSec
	sc.newRmax[g] = rmax
}
