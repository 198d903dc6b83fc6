// Batched, read-only speculative scoring: the utility delta of many
// candidate moves evaluated against one frozen State, without applying
// anything.
//
// SpeculateBatch computes what WOULD change — per-grid new serving
// sector, SINR and rate, per-sector load shifts — in epoch-marked
// scratch, folds the per-grid utility deltas into a sum, and never
// touches the state. One pass, no revert, where apply-and-revert pays
// the entry pass twice plus a utility scan.
//
// The entry pass resolves only the entries of the candidate's
// contributor footprint that can move a rate. An entry that stays weak
// (at most 8θ mW, changing by at most θ, θ = noise/32) at a grid
// outside the state's fragile set cannot change that grid's serving
// sector or rate level, so it is skipped without reading the grid (see
// fragile.go). A power move never even visits it: the entries it prices
// are the strong ones, read from its row's band order (gainrows.go),
// plus the sector's entries at fragile grids, one bit each in the
// fragile set's per-entry bits. Both are marked in a per-sector bitset
// walked in ascending index order, so a power move costs one
// exponential per sector, a pass over its strong entries and its
// bitset's words, and the grid reads of batchEntry only for the entries
// it visits. Retilts and on/off moves test each entry against the
// per-grid bits. Each skip is one batchEntry would have made anyway,
// and batchEntry sees the visited entries in the order a pass over
// every entry would, so results are bit-identical to that pass
// (TestWeakSkipMatchesFullScan).
//
// Under the log utility a touched grid is priced in Utility's closed
// form, max(L − λ, 0) before and after the move: every sector's old λ
// is read once per call (the state is frozen while it scores), a new λ
// once per move for each sector whose load shifted, and L is read from
// the model's level table at the grid's old and new rate level. Other
// objectives price u(new rate) − u(old rate).
//
// Because scoring is read-only, any number of goroutines may score
// batches against the same State concurrently, and call Utility on it,
// provided no goroutine is in Apply on that state — the evaluation
// engine shares one State across its whole worker pool this way. What
// a scorer writes is built at most once and published through atomic
// pointers: the state's fragile set, its per-entry bits and the rows'
// band orders. Concurrent builders build the same value.
//
// Scratch is recycled through a package-level sync.Pool; arrays are
// epoch-marked so per-move initialization is O(footprint), not O(grid).
//
// An entry's new received power comes from a linear-gain link row with
// the same expression Apply uses, DbmToMw(power) * gain: the state's row,
// or for a retilt the Model's cached row at the new tilt (the row Apply
// would install), so no candidate pays an exp per entry. Per-grid rates
// are bit-identical to an Apply and the delta differs from the
// full-scan oracle only by summation order (≤1e-9 relative, pinned by
// TestSpeculateMatchesFullEvaluation).
package netmodel

import (
	"fmt"
	"math"
	"math/bits"
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
	newLevel   []uint8
	loadDelta  []float64
	grids      []int32   // touched grids, insertion order
	secs       []int32   // touched sectors, insertion order
	oldLam     []float64 // per sector: λ on the frozen state (lambdas)
	newLam     []float64 // per sector: λ after the move, where the load shifted
	marks      []uint64  // per entry of a power move's sector: entries to price
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
		sc.newLevel = make([]uint8, cells)
		sc.secMark = make([]uint32, secs)
		sc.loadDelta = make([]float64, secs)
		sc.oldLam = make([]float64, secs)
		sc.newLam = make([]float64, secs)
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
	sc.newLevel[g] = s.level[g]
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
	lam := s.lambdas(u, sc.oldLam)
	fragile := s.fragile()
	var fragileEntries []uint64 // built on the first power move
	for _, mv := range moves {
		res, newOff, ok := s.speculateStart(mv)
		if ok {
			sc.nextMove()
			// Entry pass: derive each entry's new received power and
			// resolve the owning grid's new aggregates.
			ch := res.Applied
			if !newOff && !s.Cfg.Off(ch.Sector) && ch.TiltDelta == 0 {
				if fragileEntries == nil {
					fragileEntries = fragile.entryBits(s.Model.core)
				}
				s.batchPowerSector(sc, ch.Sector, ch.PowerDelta, fragileEntries)
			} else {
				s.batchRecomputeSector(sc, ch, newOff, fragile.bits)
			}
			res.Delta = s.speculateDelta(sc, u, lam)
		}
		out = append(out, res)
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

// speculateStart clamps mv against the frozen state. It reports ok when
// the move changes the radio state and so needs an entry pass; otherwise
// the returned result is final (an error, a no-op, or bookkeeping on an
// off-air sector). newOff is the sector's on/off state after the move.
func (s *State) speculateStart(mv config.Change) (res BatchResult, newOff, ok bool) {
	if mv.Sector < 0 || mv.Sector >= s.Model.Net.NumSectors() {
		return BatchResult{Err: fmt.Errorf("netmodel: speculate: sector %d out of range", mv.Sector)}, false, false
	}
	applied := s.clampChange(mv)
	if applied.IsZero() {
		return BatchResult{Applied: applied}, false, false
	}
	wasOff := s.Cfg.Off(applied.Sector)
	newOff = wasOff && !applied.TurnOn || applied.TurnOff
	// Power/tilt bookkeeping on an off-air sector: no radio change.
	return BatchResult{Applied: applied}, newOff, !(wasOff && newOff)
}

// speculateDelta finishes a move whose entry pass has filled the
// scratch: it adds the grids of every sector whose load shifted and sums
// the utility delta over the touched grids. lam is lambdas(u): every
// sector's λ on the frozen state under the log utility, nil otherwise.
func (s *State) speculateDelta(sc *batchScratch, u utility.Func, lam []float64) float64 {
	m := s.Model
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
		if lam != nil {
			sc.newLam[bb] = lambdaOf(logLoad(s.load[bb]+sc.loadDelta[bb]), math.Log10(m.ueFactor))
		}
		for _, g := range s.servedList[bb] {
			sc.touchGrid(s, g)
		}
	}

	// Utility delta over the touched grids, each priced against its old
	// per-UE utility. Loads (and their per-move deltas) are in base UE
	// units; the model's uniform factor converts to effective load in λ
	// or at the rate division.
	lv := m.levels
	f := m.ueFactor
	delta := 0.0
	for _, g := range sc.grids {
		w := m.ue[g]
		if w == 0 {
			continue
		}
		if lam != nil {
			newU, oldU := 0.0, 0.0
			if best := sc.newBestSec[g]; best >= 0 {
				lb := lam[best]
				if sc.secMark[best] == sc.epoch && sc.loadDelta[best] != 0 {
					lb = sc.newLam[best]
				}
				newU = max(lv[sc.newLevel[g]].l-lb, 0)
			}
			if best := s.bestSec[g]; best >= 0 {
				oldU = max(lv[s.level[g]].l-lam[best], 0)
			}
			delta += w * f * (newU - oldU)
			continue
		}
		rate := 0.0
		if best := sc.newBestSec[g]; best >= 0 && sc.newLevel[g] != 0 {
			n := s.load[best]
			if sc.secMark[best] == sc.epoch {
				n += sc.loadDelta[best]
			}
			n *= f
			if n < 1 {
				n = 1
			}
			rate = lv[sc.newLevel[g]].rate / n
		}
		delta += w * f * (u.U(rate) - u.U(s.RateBps(int(g))))
	}
	return delta
}

// batchPowerSector prices a power-only move on an on-air sector:
// each priced entry's new received power is the sector's new power times
// its row's gain, the expression applySectorPower uses, so per-grid
// rates are bit-identical to an Apply and the delta can diverge from a
// full scan only by summation order. An entry whose gain is at most the
// move's weak-gain bound is weak, and is skipped at a robust grid; a
// zero gain is an entry with no received power. The pass never tests
// the skipped entries: it marks the strong ones from the row's band
// order, ORs in the sector's words of the fragile entry bits, and
// visits the marked entries in ascending index order, the order a pass
// over every entry calls batchEntry in.
func (s *State) batchPowerSector(sc *batchScratch, b int, deltaDb float64, fragileEntries []uint64) {
	oldMw := s.powerMw[b]
	powerMw := units.DbmToMw(s.Cfg.PowerDbm(b) + deltaDb)
	weak := weakGainBound(s.Model.noiseMw/weakDivisor, oldMw, powerMw)
	words := s.Model.core.entryWords
	marks := sc.entryMarks(fragileEntries[words[b]:words[b+1]])
	row := s.rows[b]
	row.strongMarks(weak, marks)
	refs := s.Model.core.sectorEntries[b]
	gain := row.gain
	for w, word := range marks {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if g := gain[i]; g != 0 {
				ref := refs[i]
				s.batchEntry(sc, ref.Grid, ref.Pos, int32(b), oldMw*g, powerMw*g)
			}
		}
	}
}

// entryMarks returns the scratch's entry bitset holding a copy of words.
func (sc *batchScratch) entryMarks(words []uint64) []uint64 {
	if cap(sc.marks) < len(words) {
		sc.marks = make([]uint64, len(words))
	}
	sc.marks = sc.marks[:len(words)]
	copy(sc.marks, words)
	return sc.marks
}

// batchRecomputeSector handles tilt and on/off moves by re-deriving
// each entry's received power exactly as RefreshSector would: a retilt
// reads the model's cached row at the new tilt, the row RefreshSector
// would install. Weak entries at robust grids are skipped. An entry's
// old power is the sector's powerMw times its installed row's gain, so
// both powers are read from the rows in order.
func (s *State) batchRecomputeSector(sc *batchScratch, applied config.Change, newOff bool, fragile gridBits) {
	m := s.Model
	b := applied.Sector
	theta := m.noiseMw / weakDivisor
	oldMw := s.powerMw[b]
	powerMw := units.DbmToMw(s.Cfg.PowerDbm(b) + applied.PowerDelta)
	oldRow := s.rows[b].gain
	row := oldRow
	if applied.TiltDelta != 0 && !newOff {
		row = m.gainRow(b, s.Cfg.TiltIndex(b)+applied.TiltDelta).gain
	}
	for i, ref := range m.core.sectorEntries[b] {
		var nrp float64
		if !newOff {
			nrp = powerMw * row[i]
		}
		old := oldMw * oldRow[i]
		if weakEntry(theta, old, nrp) && !fragile.has(ref.Grid) {
			continue
		}
		s.batchEntry(sc, ref.Grid, ref.Pos, int32(b), old, nrp)
	}
}

// batchEntry folds one entry's received power moving from old to nrp
// into the scratch: grid totals, serving resolution (same tie-breaking
// as the exact rescan: ascending position order, strict improvement),
// load shifts and the new rate level.
func (s *State) batchEntry(sc *batchScratch, g, pos, b32 int32, old, nrp float64) {
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
			// value in the entry's place.
			_, nbSec, nbMw = s.scanEntries(m.core.gridStart[g], pos, 0, -1, 0)
			if nrp > nbMw {
				nbSec, nbMw = b32, nrp
			}
			_, nbSec, nbMw = s.scanEntries(pos+1, m.core.gridStart[g+1], 0, nbSec, nbMw)
		}
	case nrp > s.bestMw[g] || (nrp == s.bestMw[g] && b32 < s.bestSec[g]):
		nbSec, nbMw = b32, nrp
	default:
		nbSec, nbMw = s.bestSec[g], s.bestMw[g]
	}
	k := s.level[g]
	if nbSec == s.bestSec[g] {
		// Same serving sector: if the new SINR stays inside the grid's
		// level bounds [lo, hi), its rate is unchanged and the grid's
		// per-UE rate can only change through its serving sector's load
		// — and the load sweep re-touches exactly those grids. Skipping
		// here is what makes a power move cheap: interference shifts
		// that stay inside one level (the common case by far) cost two
		// compares, no level walk and never a u.U evaluation.
		if nbSec < 0 || nbMw <= 0 {
			if k == 0 {
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
			if lv := &m.levels[k]; nbMw >= lv.lo*den && nbMw < lv.hi*den {
				return
			}
		}
	}
	nk := uint8(0)
	if nbSec >= 0 && nbMw > 0 {
		interf := newTotal - nbMw
		if interf < 0 {
			interf = 0
		}
		nk = stepLevel(m.levels, k, nbMw/(m.noiseMw+interf))
	}
	if nbSec == s.bestSec[g] && nk == k {
		// The products left the bounds but the quotient stays inside.
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
	sc.newLevel[g] = nk
}
