package netmodel

import "math"

// Weak contributors and robust grids: the two facts that let
// SpeculateBatch skip most of a candidate's footprint without reading
// the grids it covers.
//
// θ = noiseMw/weakDivisor. An entry is weak for a move when its old and
// new received powers are both ≤ 8θ and differ by at most θ. A grid is
// robust when it has a serving sector with bestMw > 16θ, a non-empty
// cached CQI bucket, and batchEntry's bucket test passes for every
// interference in [I−θ, I+θ] (I its current interference), with a
// relative guard of robustGuard·(noise + total + best) for rounding.
// A weak entry at a robust grid cannot be the grid's serving entry (its
// old power ≤ 8θ < bestMw), cannot take the grid over (its new power
// ≤ 8θ < bestMw) and moves the interference by at most θ, so the grid
// stays in its bucket and batchEntry returns without touching the
// scratch: skipping it changes neither the touched-grid order nor the
// delta.
//
// The divisor is not a knob. θ must sit well below thermal noise so
// that few grids lie within θ of a bucket edge (a shift of noise/32 is
// at most 0.13 dB of SINR), and high enough that most of a sector's
// footprint is weak under a 1 dB move: on C_before of suburban seed 1,
// 86% of the entries are weak for a +1 dB move, 127 of 2,916 grids are
// fragile, and 83% of the entries are skipped.
const weakDivisor = 32

// robustGuard bounds, relative to noise + total + best, the rounding of
// batchEntry's recomputed interference and of the bucket products.
const robustGuard = 1e-9

// gridBits is a per-grid bitset.
type gridBits []uint64

func (b gridBits) has(g int32) bool { return b[g>>6]&(1<<(g&63)) != 0 }

// fragileSet is the fragile-grid bitset of a state at one radio
// generation.
type fragileSet struct {
	gen  uint64
	bits gridBits
}

// fragile returns the bitset of the grids that are not robust under the
// state's current radio arrays. The set is built in one O(grids) pass on
// first use after a radio change (updateRate bumps radioGen) and
// published atomically, so concurrent scorers on a shared state may
// rebuild it side by side: they build the same set, and whichever is
// stored serves later calls.
func (s *State) fragile() gridBits {
	if f := s.frag.Load(); f != nil && f.gen == s.radioGen {
		return f.bits
	}
	f := &fragileSet{gen: s.radioGen, bits: s.buildFragile()}
	s.frag.Store(f)
	return f.bits
}

// buildFragile computes the fragile set from scratch.
func (s *State) buildFragile() gridBits {
	n := s.Model.Grid.NumCells()
	bits := make(gridBits, (n+63)/64)
	noise := s.Model.noiseMw
	theta := noise / weakDivisor
	sec, best, total := s.bestSec[:n], s.bestMw[:n], s.totalMw[:n]
	lo, hi := s.sinrLo[:n], s.sinrHi[:n]
	for g := range n {
		if !robust(sec[g], best[g], total[g], lo[g], hi[g], noise, theta) {
			bits[g>>6] |= 1 << (g & 63)
		}
	}
	return bits
}

// robust reports whether a grid with serving sector sec at best mW,
// total mW and cached bucket [lo, hi) keeps its serving sector and rate
// under any set of weak entry changes that moves its interference by at
// most theta.
func robust(sec int32, best, total, lo, hi, noise, theta float64) bool {
	if sec < 0 || !(best > 16*theta) || !(lo < hi) {
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
