package netmodel

import (
	"math"

	"magus/internal/config"
	"magus/internal/geo"
	"magus/internal/propagation"
	"magus/internal/units"
	"magus/internal/utility"
)

// linkGains returns the gains of each sector's installed row.
func (s *State) linkGains() [][]float64 {
	out := make([][]float64, len(s.rows))
	for b, row := range s.rows {
		out[b] = row.gain
	}
	return out
}

// entryMw returns the received power of the contributor entry at
// position pos: its sector's power times its installed row's gain.
func (s *State) entryMw(pos int32) float64 {
	b := s.Model.core.contribSector[pos]
	return s.powerMw[b] * s.rows[b].gain[s.Model.core.entryIdx[pos]]
}

// newStateGridScan is NewState with the grid-major pass the
// sector-major one replaced: each grid, in ascending order, gathers its
// own entries through entryIdx (rescanGrid), then its rate, load and
// served-list slot. It is the oracle the sector-major build is pinned
// to.
func (m *Model) newStateGridScan(cfg *config.Config) *State {
	s := m.newStateShell(cfg)
	s.servedList = make([][]int32, m.Net.NumSectors())
	s.servedPos = make([]int32, m.Grid.NumCells())
	for g := 0; g < m.Grid.NumCells(); g++ {
		s.rescanGrid(g)
		if b := s.bestSec[g]; b >= 0 {
			s.load[b] += m.ue[g]
			s.served[b]++
			s.servedPos[g] = int32(len(s.servedList[b]))
			s.servedList[b] = append(s.servedList[b], int32(g))
		}
	}
	return s
}

// rescanGrid recomputes a grid's total, best contributor, and max rate
// from the sectors' received powers. It does not touch loads.
func (s *State) rescanGrid(g int) {
	c := s.Model.core
	s.totalMw[g], s.bestSec[g], s.bestMw[g] = s.scanEntries(c.gridStart[g], c.gridStart[g+1], 0, -1, 0)
	s.updateRate(g)
}

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
	lam := s.lambdas(u, nil)
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
			row := s.rows[b].gain
			if ch.TiltDelta != 0 && !newOff {
				row = m.gainRow(b, s.Cfg.TiltIndex(b)+ch.TiltDelta).gain
			}
			for i, ref := range m.core.sectorEntries[b] {
				old := s.entryMw(ref.Pos)
				if power && old == 0 {
					continue
				}
				var nrp float64
				if !newOff {
					nrp = powerMw * row[i]
				}
				n := len(sc.grids)
				s.batchEntry(sc, ref.Grid, ref.Pos, int32(b), old, nrp)
				if touched != nil {
					touched(mv, ref.Pos, len(sc.grids) != n)
				}
			}
			res.Delta = s.speculateDelta(sc, u, lam)
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
	fragile := s.fragile().bits
	theta := m.noiseMw / weakDivisor
	oldMw := units.DbmToMw(s.Cfg.PowerDbm(b))
	powerMw := units.DbmToMw(s.Cfg.PowerDbm(b) + ch.PowerDelta)
	power := !newOff && !s.Cfg.Off(b) && ch.TiltDelta == 0
	weak := weakGainBound(theta, oldMw, powerMw)
	if s.Cfg.Off(b) {
		oldMw = 0
	}
	row := s.rows[b].gain
	if ch.TiltDelta != 0 && !newOff {
		row = m.gainRow(b, s.Cfg.TiltIndex(b)+ch.TiltDelta).gain
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
		if power && row[i] != 0 && row[i] <= weak || !power && weakEntry(theta, oldMw*s.rows[b].gain[i], nrp) {
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
			old := s.entryMw(ref.Pos)
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

// buildCellRangePerSector is buildCellRange without the site-shared
// geometry: SectorBase, the cutoff test and the elevation evaluated for
// every candidate sector, as the build stood before sharing. It is the
// oracle the shared build is pinned to.
func (m *Model) buildCellRangePerSector(centers []geo.Point, idx *sectorIndex, lo, hi int, floorDbm float64) *buildShard {
	sh := &buildShard{counts: make([]int32, hi-lo)}
	cutoff := m.params.CutoffRadiusM
	for g := lo; g < hi; g++ {
		center := centers[g]
		for _, b := range idx.candidates(center) {
			sec := &m.Net.Sectors[b]
			if sec.Pos.DistanceTo(center) > cutoff {
				continue
			}
			base := m.SPM.SectorBase(sec, center)
			if sec.MaxPowerDbm+base < floorDbm {
				continue
			}
			elev := m.SPM.ElevationDeg(sec, center)
			if m.params.ApproxTiltElevation {
				elev = propagation.FlatEarthElevationDeg(sec, center)
			}
			sh.sector = append(sh.sector, b)
			sh.baseDB = append(sh.baseDB, float32(base))
			sh.elev = append(sh.elev, float32(elev))
			sh.counts[g-lo]++
		}
	}
	return sh
}
