package netmodel

import "magus/internal/utility"

// This file gives State a running overall-utility sum that Apply
// repairs from only the grids a change touched. SpeculateBatch prices a
// candidate move as a delta against its per-grid memo (trackRate/trackU),
// which is what lets the evaluation engine score a move in time
// proportional to the change's footprint rather than the market size.
//
// Invariants:
//
//   - While trackOn is true and no Apply is in flight,
//     trackSum == Σ_g ue[g]·u(trackRate[g]) and trackRate[g] == RateBps(g).
//   - Every per-UE rate change is covered by the dirty marks: rmax and
//     serving-sector changes funnel through updateRate (which marks the
//     grid), and load shifts funnel through setServing (which marks the
//     two sectors; a sector's served grids are a subset of its
//     contributor entries, so repairTracking can enumerate them locally).
//   - Tracking survives Apply but not RecomputeLoads or AssignUsers*
//     (those change the UE weights underneath the sum); they switch it
//     off and the next use re-derives it with one full scan.
//   - The running sum and the Utility memo are independent: tracking
//     never touches cacheRate/cacheU, so the exact full-scan Utility of
//     a tracked state is bit-identical to that of an untracked one.
//
// trackSum accumulates in repair order rather than grid order, so it can
// differ from Utility's left-to-right sum by floating-point rounding
// (observed ulps on utilities of magnitude 1e4–1e5). Callers that need
// exact comparability against Utility values add a BatchResult's Delta
// to a full-scan Utility instead of reading the sum; the evaluation
// engine does exactly that.

// EnableUtilityTracking (re)derives the running utility sum under u with
// one full scan. A no-op when tracking is already live for the same
// objective. Apply keeps the sum repaired incrementally afterwards.
func (s *State) EnableUtilityTracking(u utility.Func) {
	if s.trackOn && s.trackFn.Name == u.Name && s.trackFactor == s.Model.ueFactor {
		return
	}
	if s.trackRate == nil {
		n := s.Model.Grid.NumCells()
		s.trackRate = make([]float64, n)
		s.trackU = make([]float64, n)
		s.gridDirty = make([]bool, n)
		s.secDirty = make([]bool, s.Model.Net.NumSectors())
	}
	// Tracking may have been switched off with marks pending; clear them.
	for _, g := range s.dirtyGrids {
		s.gridDirty[g] = false
	}
	s.dirtyGrids = s.dirtyGrids[:0]
	for _, b := range s.dirtySecs {
		s.secDirty[b] = false
	}
	s.dirtySecs = s.dirtySecs[:0]

	f := s.Model.ueFactor
	sum := 0.0
	for g, w := range s.Model.ue {
		rate := s.RateBps(g)
		s.trackRate[g] = rate
		uu := 0.0
		if w != 0 {
			uu = u.U(rate)
			sum += w * f * uu
		}
		s.trackU[g] = uu
	}
	s.trackFn = u
	s.trackFactor = f
	s.trackSum = sum
	s.trackOn = true
	s.buildServedIndex()
}

// UtilityTracked returns the incrementally maintained overall utility
// under u, enabling tracking on first use. It can differ from Utility by
// floating-point rounding only (different summation order).
func (s *State) UtilityTracked(u utility.Func) float64 {
	s.EnableUtilityTracking(u)
	return s.trackSum
}

func (s *State) markGrid(g int32) {
	if !s.gridDirty[g] {
		s.gridDirty[g] = true
		s.dirtyGrids = append(s.dirtyGrids, g)
	}
}

func (s *State) markSector(b int32) {
	if !s.secDirty[b] {
		s.secDirty[b] = true
		s.dirtySecs = append(s.dirtySecs, b)
	}
}

// repairTracking folds the dirty grids back into the running sum at the
// end of an Apply. A dirty sector's load shift changes the per-UE rate
// of every grid it serves, so those grids are marked first; both sweeps
// are local to the change's footprint.
func (s *State) repairTracking() {
	m := s.Model
	for _, b := range s.dirtySecs {
		s.secDirty[b] = false
		if s.servedIdxOn {
			for _, g := range s.servedList[b] {
				s.markGrid(g)
			}
			continue
		}
		for _, ref := range m.core.sectorEntries[b] {
			if s.bestSec[ref.Grid] == b {
				s.markGrid(ref.Grid)
			}
		}
	}
	s.dirtySecs = s.dirtySecs[:0]
	f := s.trackFactor
	for _, g := range s.dirtyGrids {
		s.gridDirty[g] = false
		rate := s.RateBps(int(g))
		if rate == s.trackRate[g] {
			continue
		}
		s.trackRate[g] = rate
		if w := m.ue[g]; w != 0 {
			nu := s.trackFn.U(rate)
			s.trackSum += w * f * (nu - s.trackU[g])
			s.trackU[g] = nu
		}
	}
	s.dirtyGrids = s.dirtyGrids[:0]
}
