package netmodel

import (
	"math"

	"magus/internal/config"
	"magus/internal/units"
	"magus/internal/utility"
)

// kpiBranches classifies every sector the way KPIUtility's log-utility
// read does at the current load factor: priced from its totals (λ below
// its smallest bucket L, nothing on the 1 kbps clamp) or by walking its
// buckets.
func (s *State) kpiBranches() (totals, walked int) {
	lf := math.Log10(s.Model.ueFactor)
	for b := range s.aggSt {
		if st := &s.aggSt[b]; st.lambda(s.load[b], lf) < st.minL {
			totals++
		} else {
			walked++
		}
	}
	return totals, walked
}

// speculateFull is SpeculateBatch without the weak-entry skip: the
// scorer's entry loops as they stood before it, running batchEntry on
// every entry. It is the oracle the skip is pinned to. touched, when
// non-nil, is called after each batchEntry with the entry's position and
// whether the call touched the scratch.
func (s *State) speculateFull(moves []config.Change, u utility.Func, touched func(mv config.Change, pos int32, hit bool)) []BatchResult {
	sc := &batchScratch{}
	sc.ensure(s.Model.Grid.NumCells(), s.Model.Net.NumSectors())
	var out []BatchResult
	for _, mv := range moves {
		res, newOff, ok := s.speculateStart(mv)
		if ok {
			sc.nextMove()
			ch := res.Applied
			b := ch.Sector
			m := s.Model
			powerMw := units.DbmToMw(s.Cfg.PowerDbm(b) + ch.PowerDelta)
			power := !newOff && !s.Cfg.Off(b) && ch.TiltDelta == 0
			row := s.linkGain[b]
			if ch.TiltDelta != 0 && !newOff {
				row = m.gainRow(b, s.Cfg.TiltIndex(b)+ch.TiltDelta)
			}
			for i, ref := range m.core.sectorEntries[b] {
				if power && s.rpMw[ref.Pos] == 0 {
					continue
				}
				var nrp float64
				if !newOff {
					nrp = powerMw * row[i]
				}
				n := len(sc.grids)
				s.batchEntry(sc, ref.Grid, ref.Pos, int32(b), nrp)
				if touched != nil {
					touched(mv, ref.Pos, len(sc.grids) != n)
				}
			}
			res.Delta = s.speculateDelta(sc, u)
		}
		out = append(out, res)
	}
	return out
}

// skippedEntries returns the positions of the entries of mv's sector
// that SpeculateBatch's entry pass skips on the current state, by the
// same tests the pass makes.
func (s *State) skippedEntries(mv config.Change) map[int32]bool {
	res, newOff, ok := s.speculateStart(mv)
	if !ok {
		return nil
	}
	ch := res.Applied
	b := ch.Sector
	m := s.Model
	fragile := s.fragile()
	theta := m.noiseMw / weakDivisor
	oldMw := units.DbmToMw(s.Cfg.PowerDbm(b))
	powerMw := units.DbmToMw(s.Cfg.PowerDbm(b) + ch.PowerDelta)
	power := !newOff && !s.Cfg.Off(b) && ch.TiltDelta == 0
	weak := weakGainBound(theta, oldMw, powerMw)
	if s.Cfg.Off(b) {
		oldMw = 0
	}
	row := s.linkGain[b]
	if ch.TiltDelta != 0 && !newOff {
		row = m.gainRow(b, s.Cfg.TiltIndex(b)+ch.TiltDelta)
	}
	skipped := map[int32]bool{}
	for i, ref := range m.core.sectorEntries[b] {
		if fragile.has(ref.Grid) {
			continue
		}
		var nrp float64
		if !newOff {
			nrp = powerMw * row[i]
		}
		if power && row[i] != 0 && row[i] <= weak || !power && weakEntry(theta, oldMw*s.linkGain[b][i], nrp) {
			skipped[ref.Pos] = true
		}
	}
	return skipped
}

// sinrImproversFull is SINRImprovers as it stood before the served-grid
// pass: the scan over every candidate's contributor entries.
func (s *State) sinrImproversFull(affected []int, candidates []int, deltaDb float64) []int {
	if deltaDb <= 0 || len(affected) == 0 {
		return nil
	}
	mark := make([]bool, s.Model.Grid.NumCells())
	for _, g := range affected {
		mark[g] = true
	}
	factor := math.Pow(10, deltaDb/10)
	var out []int
	for _, b := range candidates {
		if s.Cfg.Off(b) || s.Cfg.AtMaxPower(b) {
			continue
		}
		for _, ref := range s.Model.core.sectorEntries[b] {
			if !mark[ref.Grid] {
				continue
			}
			g := int(ref.Grid)
			old := s.rpMw[ref.Pos]
			if old <= 0 {
				continue
			}
			newRp := old * factor
			newTotal := s.totalMw[g] + newRp - old
			newBest := s.bestMw[g]
			if s.bestSec[g] == int32(b) || newRp > newBest {
				newBest = newRp
			}
			interf := newTotal - newBest
			if interf < 0 {
				interf = 0
			}
			oldInterf := s.totalMw[g] - s.bestMw[g]
			if oldInterf < 0 {
				oldInterf = 0
			}
			newSinr := newBest / (s.Model.noiseMw + interf)
			oldSinr := s.bestMw[g] / (s.Model.noiseMw + oldInterf)
			if newSinr > oldSinr*(1+1e-12) {
				out = append(out, b)
				break
			}
		}
	}
	return out
}
