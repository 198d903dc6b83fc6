package netmodel

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Weak contributors and robust grids: the two facts that let
// SpeculateBatch skip most of a candidate's footprint without reading
// the grids it covers. A power move does not even visit the entries it
// skips: it prices its strong entries, found from its row's band order
// (gainrows.go), and the sector's entries at fragile grids, found from
// the fragile set's per-entry bits.
//
// θ = noiseMw/weakDivisor. An entry is weak for a move when its old and
// new received powers are both ≤ 8θ and differ by at most θ. A grid is
// robust when it has a serving sector with bestMw > 16θ and batchEntry's
// level-bounds test passes for every interference in [I−θ, I+θ] (I its
// current interference), with a relative guard of
// robustGuard·(noise + total + best) for rounding. A weak entry at a
// robust grid cannot be the grid's serving entry (its old power
// ≤ 8θ < bestMw), cannot take the grid over (its new power
// ≤ 8θ < bestMw) and moves the interference by at most θ, so the grid
// stays at its level and batchEntry returns without touching the
// scratch: skipping it changes neither the touched-grid order nor the
// delta.
//
// The divisor is not a knob. θ must sit well below thermal noise so
// that few grids lie within θ of a level edge (a shift of noise/32 is
// at most 0.13 dB of SINR), and high enough that most of a sector's
// footprint is weak under a 1 dB move: on C_before of suburban seed 1,
// 86% of the entries are weak for a +1 dB move, 127 of 2,916 grids are
// fragile, and +1 dB moves on all 117 sectors visit 16,918 of the
// 99,899 entries (17%).
const weakDivisor = 32

// robustGuard bounds, relative to noise + total + best, the rounding of
// batchEntry's recomputed interference and of the level-bounds products.
const robustGuard = 1e-9

// gridBits is a per-grid bitset.
type gridBits []uint64

func (b gridBits) has(g int32) bool { return b[g>>6]&(1<<(g&63)) != 0 }

// fragileSet is the fragile set of a state at one radio generation: a
// bit per grid, and, built on the first power move scored at that
// generation, a bit per contributor entry at a fragile grid, sector b's
// entries in words entryWords[b] .. entryWords[b+1] of the core (bit i
// of the range is entry i of sectorEntries[b]). baseBits and
// baseEntries are the grid and entry bits of an earlier generation over
// the same core (nil for none), kept so that the entry bits can be
// derived from them at the grids whose bit changed since.
type fragileSet struct {
	gen     uint64
	bits    gridBits
	entries atomic.Pointer[[]uint64]

	baseBits    gridBits
	baseEntries []uint64
}

// fragile returns the fragile set of the state's current radio arrays.
// The grid bits are built in one O(grids) pass on first use after a
// radio change (updateRate bumps radioGen) and published atomically, so
// concurrent scorers on a shared state may rebuild the set side by side:
// they build the same bits, and whichever set is stored serves later
// calls. A new set takes the set it replaces as its base when that one
// has entry bits, and that one's base otherwise, so a state keeps at
// most one earlier generation's bits alive.
func (s *State) fragile() *fragileSet {
	old := s.frag.Load()
	if old != nil && old.gen == s.radioGen {
		return old
	}
	f := &fragileSet{gen: s.radioGen, bits: s.buildFragile()}
	if old != nil {
		f.baseBits, f.baseEntries = old.baseBits, old.baseEntries
		if e := old.entries.Load(); e != nil {
			f.baseBits, f.baseEntries = old.bits, *e
		}
	}
	s.frag.Store(f)
	return f
}

// entryBits returns the set's per-entry bits, deriving them on first
// use from the base's: each grid whose fragile bit differs from the
// base's flips the bits of its own contributor entries, so the build
// reads only those grids (every fragile grid when there is no base).
// Concurrent first users derive the same bits; the first published ones
// serve every later call.
func (f *fragileSet) entryBits(c *ModelCore) []uint64 {
	if e := f.entries.Load(); e != nil {
		return *e
	}
	words := c.entryWords
	out := make([]uint64, words[len(words)-1])
	copy(out, f.baseEntries)
	for w, word := range f.bits {
		if f.baseBits != nil {
			word ^= f.baseBits[w]
		}
		for word != 0 {
			g := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			lo, hi := c.gridStart[g], c.gridStart[g+1]
			secs := c.contribSector[lo:hi]
			idx := c.entryIdx[lo:hi][:len(secs)]
			for j, b := range secs {
				k := int(words[b])<<6 + int(idx[j])
				out[k>>6] ^= 1 << (k & 63)
			}
		}
	}
	if f.entries.CompareAndSwap(nil, &out) {
		return out
	}
	return *f.entries.Load()
}

// buildFragile computes the fragile set from scratch.
func (s *State) buildFragile() gridBits {
	n := s.Model.Grid.NumCells()
	bits := make(gridBits, (n+63)/64)
	noise := s.Model.noiseMw
	theta := noise / weakDivisor
	sec, best, total, level := s.bestSec[:n], s.bestMw[:n], s.totalMw[:n], s.level[:n]
	for g := range n {
		lv := &s.Model.levels[level[g]]
		if !robust(sec[g], best[g], total[g], lv.lo, lv.hi, noise, theta) {
			bits[g>>6] |= 1 << (g & 63)
		}
	}
	return bits
}

// robust reports whether a grid with serving sector sec at best mW,
// total mW and level bounds [lo, hi) keeps its serving sector and rate
// under any set of weak entry changes that moves its interference by at
// most theta.
func robust(sec int32, best, total, lo, hi, noise, theta float64) bool {
	if sec < 0 || !(best > 16*theta) {
		return false
	}
	interf := max(total-best, 0)
	guard := robustGuard * (noise + total + best)
	return best >= lo*(noise+interf+theta+guard) &&
		best < hi*(noise+max(interf-theta-guard, 0))
}

// weakGainBound returns the largest link gain whose entry is weak for a
// power move from oldMw to newMw: gain·max(old, new) ≤ 8θ and
// gain·|new − old| ≤ θ, shrunk by robustGuard so the rounded products
// stay inside both bounds.
func weakGainBound(theta, oldMw, newMw float64) float64 {
	return theta * min(1/math.Abs(newMw-oldMw), 8/max(oldMw, newMw)) * (1 - robustGuard)
}

// weakEntry reports whether an entry moving from old to nrp received
// power is weak.
func weakEntry(theta, old, nrp float64) bool {
	return old <= 8*theta && nrp <= 8*theta && math.Abs(nrp-old) <= theta
}
