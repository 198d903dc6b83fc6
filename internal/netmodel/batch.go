// Batched, read-only speculative scoring: the utility delta of many
// candidate moves evaluated against one frozen State, without applying
// anything.
//
// SpeculateBatch computes what WOULD change — per-grid new serving
// sector, SINR and rate, per-sector load shifts — in epoch-marked
// scratch, folds the per-grid utility deltas against the tracked memo
// into a sum, and never touches the state. One pass, no revert, no
// tracking repair; a power-only move costs one exponential (float) or
// one multiply (fixed) per entry, where apply-and-revert pays two
// exponentials plus a utility scan.
//
// Because scoring is read-only, any number of goroutines may score
// batches against the same State concurrently, provided utility tracking
// was enabled (EnableUtilityTracking) before the fan-out and no Apply is
// in flight — the evaluation engine shares one State across its whole
// worker pool this way.
//
// Scratch is recycled through a package-level sync.Pool; arrays are
// epoch-marked so per-move initialization is O(footprint), not O(grid).
//
// Two variants share all of the grid/serving/load/utility logic and
// differ only in how an entry's new received power is derived:
//
//   - float: from the state's own linkDB/rpMw float64 columns, the same
//     arithmetic Apply performs, so per-grid rates are bit-identical to
//     an Apply and the delta differs from the full-scan oracle only by
//     summation order (≤1e-9 relative, pinned by
//     TestSpeculateMatchesFullEvaluation).
//   - fixed: from the core's int16 centi-dB mirror via the decade tables
//     (fixedpoint.go) — no math.Exp anywhere on the move path
//     (quantization-pinned, ≤0.1% utility deviation).
//
// The fixed variant falls back to float for sectors with tabulated
// link-table overrides (InstallLinkTable) — the mirror quantizes the
// analytic pattern, not the ingested curves — and under the
// magus_nofixed build tag.
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
	// Utility is the tracked running sum plus Delta: the overall utility
	// the state would have after Applied, up to the running sum's
	// summation-order rounding.
	Utility float64
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

// ensure sizes the scratch for a model and starts a fresh epoch.
func (sc *batchScratch) ensure(numCells, numSectors int) {
	if len(sc.gridMark) < numCells {
		sc.gridMark = make([]uint32, numCells)
		sc.newTotal = make([]float64, numCells)
		sc.newBestMw = make([]float64, numCells)
		sc.newBestSec = make([]int32, numCells)
		sc.newRmax = make([]float64, numCells)
		sc.epoch = 0
	}
	if len(sc.secMark) < numSectors {
		sc.secMark = make([]uint32, numSectors)
		sc.loadDelta = make([]float64, numSectors)
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
// (allocated when nil) in move order. fixed selects the quantized
// centi-dB evaluation (tolerance-pinned); false selects the float path
// (rounding-pinned to the full-scan Utility).
//
// The call enables utility tracking for u if it is not already live —
// that first enable mutates the state, so concurrent callers over a
// shared state must EnableUtilityTracking(u) once before fanning out.
func (s *State) SpeculateBatch(moves []config.Change, u utility.Func, fixed bool, out []BatchResult) []BatchResult {
	s.EnableUtilityTracking(u)
	sc := batchScratchPool.Get().(*batchScratch)
	sc.ensure(s.Model.Grid.NumCells(), s.Model.Net.NumSectors())
	for _, mv := range moves {
		out = append(out, s.speculateOne(mv, u, fixed, sc))
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
func (s *State) speculateOne(mv config.Change, u utility.Func, fixed bool, sc *batchScratch) BatchResult {
	m := s.Model
	if mv.Sector < 0 || mv.Sector >= m.Net.NumSectors() {
		return BatchResult{Err: fmt.Errorf("netmodel: speculate: sector %d out of range", mv.Sector)}
	}
	applied := s.clampChange(mv)
	if applied.IsZero() {
		return BatchResult{Applied: applied, Utility: s.trackSum}
	}
	b := applied.Sector
	wasOff := s.Cfg.Off(b)
	newOff := wasOff && !applied.TurnOn || applied.TurnOff
	if wasOff && newOff {
		// Power/tilt bookkeeping on an off-air sector: no radio change.
		return BatchResult{Applied: applied, Utility: s.trackSum}
	}
	sc.nextMove()

	// Entry pass: derive each entry's new received power and resolve the
	// owning grid's new aggregates. The quantized variant is skipped for
	// sectors answering from a tabulated link curve.
	useFixed := fixed && fixedPointEnabled &&
		(m.curveSettings == nil || m.curveSettings[b] == nil)
	scale := !newOff && !wasOff && applied.TiltDelta == 0 && !applied.TurnOff && !applied.TurnOn
	switch {
	case scale && useFixed:
		factor := mwFromCdb(int32(quantCenti(applied.PowerDelta)))
		s.batchScaleSector(sc, b, factor)
	case scale:
		s.batchPowerSectorFloat(sc, b, applied.PowerDelta)
	case useFixed:
		s.batchRecomputeSectorFixed(sc, applied, newOff)
	default:
		s.batchRecomputeSectorFloat(sc, applied, newOff)
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
		if s.servedIdxOn {
			for _, g := range s.servedList[bb] {
				sc.touchGrid(s, g)
			}
			continue
		}
		for _, ref := range m.core.sectorEntries[bb] {
			eff := s.bestSec[ref.Grid]
			if sc.gridMark[ref.Grid] == sc.epoch {
				eff = sc.newBestSec[ref.Grid]
			}
			if eff == bb {
				sc.touchGrid(s, ref.Grid)
			}
		}
	}

	// Utility delta over the touched grids, against the tracked memo.
	// Loads (and their per-move deltas) are in base UE units; the model's
	// uniform factor converts to effective load at the rate division.
	f := m.ueFactor
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
		delta += w * f * (u.U(rate) - s.trackU[g])
	}
	return BatchResult{Applied: applied, Delta: delta, Utility: s.trackSum + delta}
}

// batchScaleSector handles the fixed-path power-only move on an on-air
// sector: one linear factor (from the quantized delta) scales every live
// entry — one multiply where the exact path pays one exponential.
func (s *State) batchScaleSector(sc *batchScratch, b int, factor float64) {
	for _, ref := range s.Model.core.sectorEntries[b] {
		old := s.rpMw[ref.Pos]
		if old == 0 {
			continue
		}
		s.batchEntry(sc, ref.Grid, ref.Pos, int32(b), old*factor)
	}
}

// batchPowerSectorFloat is the float twin of the power-only move: it
// re-derives each entry in the dB domain with the same expression
// applySectorPower uses, so per-grid rates are bit-identical to an
// Apply and the delta can diverge from a full scan only by summation
// order.
func (s *State) batchPowerSectorFloat(sc *batchScratch, b int, deltaDb float64) {
	newPower := s.Cfg.PowerDbm(b) + deltaDb
	for _, ref := range s.Model.core.sectorEntries[b] {
		if s.rpMw[ref.Pos] == 0 {
			continue
		}
		s.batchEntry(sc, ref.Grid, ref.Pos, int32(b), units.DbmToMw(newPower+s.linkDB[ref.Pos]))
	}
}

// batchRecomputeSectorFloat handles tilt and on/off moves by re-deriving
// each entry's link budget exactly as refreshSector would.
func (s *State) batchRecomputeSectorFloat(sc *batchScratch, applied config.Change, newOff bool) {
	m := s.Model
	b := applied.Sector
	newPower := s.Cfg.PowerDbm(b) + applied.PowerDelta
	newTilt := m.Net.Sectors[b].Tilts.Degrees(s.Cfg.TiltIndex(b) + applied.TiltDelta)
	retilt := applied.TiltDelta != 0
	for _, ref := range m.core.sectorEntries[b] {
		var nrp float64
		if !newOff {
			link := s.linkDB[ref.Pos]
			if retilt {
				link = m.entryLinkDB(int(ref.Pos), newTilt)
			}
			nrp = units.DbmToMw(newPower + link)
		}
		s.batchEntry(sc, ref.Grid, ref.Pos, int32(b), nrp)
	}
}

// batchRecomputeSectorFixed is the quantized twin: link budgets come
// from the int16 centi-dB mirror and powers from the decade tables, so
// the per-entry cost is integer adds, one float multiply for the
// vertical pattern, and two table loads — no exponentials.
func (s *State) batchRecomputeSectorFixed(sc *batchScratch, applied config.Change, newOff bool) {
	m := s.Model
	b := applied.Sector
	f := m.core.fixedMirror()
	lo, hi := f.secStart[b], f.secStart[b+1]
	if newOff {
		for i := lo; i < hi; i++ {
			s.batchEntry(sc, f.grid[i], f.pos[i], int32(b), 0)
		}
		return
	}
	powerCdb := int32(quantCenti(s.Cfg.PowerDbm(b) + applied.PowerDelta))
	tiltCdeg := float64(quantCenti(m.Net.Sectors[b].Tilts.Degrees(s.Cfg.TiltIndex(b) + applied.TiltDelta)))
	pat := &m.Net.Sectors[b].Pattern
	invBw := 1 / pat.VertBeamwidthDeg
	slaCdb := int32(quantCenti(pat.SideLobeLimitDB))
	for i := lo; i < hi; i++ {
		// A_v = -min(12 ((elev-tilt)/bw)^2, SLA) in centi-dB.
		d := (float64(f.elevCdeg[i]) - tiltCdeg) * invBw
		vatt := int32(0.12*d*d + 0.5) // 12*(d/100)^2 dB → centi-dB, rounded
		if vatt > slaCdb {
			vatt = slaCdb
		}
		nrp := mwFromCdb(powerCdb + int32(f.baseCdb[i]) - vatt)
		s.batchEntry(sc, f.grid[i], f.pos[i], int32(b), nrp)
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
