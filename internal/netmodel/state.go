package netmodel

import (
	"math"

	"magus/internal/config"
	"magus/internal/units"
	"magus/internal/utility"
)

// State is the full evaluation of one configuration against a Model:
// per-grid serving sector, SINR and maximum rate, and per-sector load.
// Apply performs incremental re-evaluation after a single-sector change;
// Clone snapshots the state for later comparison; Derive evaluates
// another configuration from it.
//
// A State owns its Config: mutate the configuration only through Apply
// so the cached radio state stays consistent.
type State struct {
	Model *Model
	Cfg   *config.Config

	rpMw    []float64 // per contributor entry: current received power, mW (0 when off)
	totalMw []float64 // per grid: sum of all contributors, mW
	bestSec []int32   // per grid: serving sector, -1 if none
	bestMw  []float64 // per grid: serving sector received power, mW
	rmax    []float64 // per grid: max rate (bits/s) at current SINR
	sinrLo  []float64 // per grid: linear-SINR CQI bucket floor backing rmax
	sinrHi  []float64 // per grid: linear-SINR CQI bucket ceiling (exclusive)
	load    []float64 // per sector: sum of UE weights over served grids
	served  []int32   // per sector: number of served grids

	// Per-sector link rows: linkGain[b][i] is the linear link gain,
	// DbmToMw of the link budget (base loss plus vertical attenuation at
	// the sector's current tilt), of sector b's i-th entry in
	// sectorEntries[b] order. Every received power is
	// DbmToMw(power) * gain, one exp per sector and one multiply per
	// entry. A row is built whole and installed by deriveSector or
	// RefreshSector and never written after that, so Clone and Derive
	// share rows with their source: a copy costs one header per sector,
	// and neither side can see a write made by the other.
	linkGain [][]float64

	// Per-grid utility memo: most grids keep their rate between two
	// Utility calls during a search, so the per-UE utility (a log10) is
	// recomputed only for grids whose rate changed. cacheName identifies
	// the utility function the memo belongs to (function names are
	// unique per objective).
	cacheRate []float64
	cacheU    []float64
	cacheName string

	// Scratch for SINRImprovers' affected-grid membership test, reused
	// across calls (the search hot loop calls it once per step). Always
	// all-false between calls; never cloned.
	affectedMark []bool

	// Per-sector served-grid index: servedList[b] holds exactly the grids
	// with bestSec == b, servedPos[g] the grid's slot in its list, so the
	// "which grids does this load shift touch?" sweeps in SpeculateBatch
	// and the KPI aggregates run over the served set instead of the (much
	// larger) contributor entry list. Built by NewState and Derive, copied
	// by Clone and maintained O(1) by setServing.
	servedList [][]int32
	servedPos  []int32

	// Incremental KPI aggregates backing KPIUtility and the radio-change
	// grid bitset backing DrainChangedGrids (bit g set when grid g was
	// touched since the last drain; nil when the log is off); see
	// incremental.go. Neither survives Clone (zero values mean "off"),
	// and RecomputeLoads / AssignUsers* switch the aggregates off.
	aggOn    bool
	aggFn    utility.Func
	aggMode  uint8
	aggBk    [][]aggBucket // per sector: quantized-rate buckets
	aggSec   []int32       // per grid: sector accounted under (-1 none)
	aggW     []float64     // per grid: accounted base weight
	aggWL    []float64     // per grid: accounted w·L term
	aggRmax  []float64     // per grid: accounted max rate (bucket key)
	aggSt    []aggSector   // per sector: totals, λ memo, dirty mark
	aggDirty []int32       // sectors marked dirty since the last rebuild
	changed  []uint64
}

// NewState fully evaluates cfg against the model. The state takes
// ownership of cfg (clone it first if the caller needs the original).
func (m *Model) NewState(cfg *config.Config) *State {
	s := m.allocState(cfg)
	for b := range m.core.sectorEntries {
		s.deriveSector(b)
	}
	s.evaluateGrids()
	return s
}

// allocState returns a zeroed state over m owning cfg, with an empty
// utility memo: the link rows, per-entry and per-grid arrays await
// deriveSector and evaluateGrids.
func (m *Model) allocState(cfg *config.Config) *State {
	s := &State{
		Model:    m,
		Cfg:      cfg,
		rpMw:     make([]float64, len(m.core.contribSector)),
		totalMw:  make([]float64, m.Grid.NumCells()),
		bestSec:  make([]int32, m.Grid.NumCells()),
		bestMw:   make([]float64, m.Grid.NumCells()),
		rmax:     make([]float64, m.Grid.NumCells()),
		sinrLo:   make([]float64, m.Grid.NumCells()),
		sinrHi:   make([]float64, m.Grid.NumCells()),
		load:     make([]float64, m.Net.NumSectors()),
		served:   make([]int32, m.Net.NumSectors()),
		linkGain: make([][]float64, m.Net.NumSectors()),
	}
	s.resetUtilityMemo("")
	return s
}

// resetUtilityMemo invalidates the per-grid utility memo and tags it
// with the owning utility function's name.
func (s *State) resetUtilityMemo(name string) {
	if s.cacheRate == nil {
		s.cacheRate = make([]float64, s.Model.Grid.NumCells())
		s.cacheU = make([]float64, s.Model.Grid.NumCells())
	}
	for i := range s.cacheRate {
		s.cacheRate[i] = -1 // rates are never negative
	}
	s.cacheName = name
}

// Clone returns an independent snapshot of the state (the configuration
// is deep-copied too). The utility memo IS copied — it is a consistent
// snapshot of (rate, u(rate)) pairs, so the clone's first Utility call
// under the same objective stays incremental — and so is the served-grid
// index. The link rows are shared, not copied: no state writes into an
// installed row. The KPI aggregates, the change log and the
// SINRImprovers scratch are NOT copied: zero values mean
// "off"/"unallocated".
func (s *State) Clone() *State {
	c := &State{
		Model:     s.Model,
		Cfg:       s.Cfg.Clone(),
		rpMw:      append([]float64(nil), s.rpMw...),
		linkGain:  append([][]float64(nil), s.linkGain...),
		totalMw:   append([]float64(nil), s.totalMw...),
		bestSec:   append([]int32(nil), s.bestSec...),
		bestMw:    append([]float64(nil), s.bestMw...),
		rmax:      append([]float64(nil), s.rmax...),
		sinrLo:    append([]float64(nil), s.sinrLo...),
		sinrHi:    append([]float64(nil), s.sinrHi...),
		load:      append([]float64(nil), s.load...),
		served:    append([]int32(nil), s.served...),
		cacheRate: append([]float64(nil), s.cacheRate...),
		cacheU:    append([]float64(nil), s.cacheU...),
		cacheName: s.cacheName,
		servedPos: append([]int32(nil), s.servedPos...),
	}
	// One backing array for every sector's list, each a capacity-capped
	// window: the first append setServing makes to a list reallocates
	// only that list and can never write into a neighbour's range.
	flat := make([]int32, 0, len(s.servedPos))
	c.servedList = make([][]int32, len(s.servedList))
	for b, list := range s.servedList {
		off := len(flat)
		flat = append(flat, list...)
		c.servedList[b] = flat[off:len(flat):len(flat)]
	}
	return c
}

// Derive returns cfg evaluated against m: a state bit-identical to
// m.NewState(cfg), built from s instead of from scratch. Every entry's
// link budget and received power is a pure function of its sector's
// power, tilt and on/off setting, so Derive copies s's received powers,
// shares its link rows, and re-derives only the sectors whose setting
// cfg changes (all of them when m answers link budgets from other
// tables than s.Model), then runs NewState's per-grid pass. That presumes s's entries are current:
// s was built or refreshed after its model's last InstallLinkTable.
//
// m must share s's ModelCore — s.Model itself or a ForkUsers fork —
// and Derive panics otherwise. The loads come from m's UE distribution.
// s is only read, so Derive is safe on a state shared between
// goroutines. The new state takes ownership of cfg.
func (s *State) Derive(m *Model, cfg *config.Config) *State {
	if m.core != s.Model.core {
		panic("netmodel: Derive onto a model over another core")
	}
	d := m.allocState(cfg)
	copy(d.rpMw, s.rpMw)
	copy(d.linkGain, s.linkGain) // row headers: rows are never written in place
	all := !sameLinkTables(m, s.Model)
	for b := range m.core.sectorEntries {
		if all || cfg.PowerDbm(b) != s.Cfg.PowerDbm(b) ||
			cfg.TiltIndex(b) != s.Cfg.TiltIndex(b) || cfg.Off(b) != s.Cfg.Off(b) {
			d.deriveSector(b)
		}
	}
	d.evaluateGrids()
	return d
}

// sameLinkTables reports whether a and b answer entryLinkDB from the
// same tabulated link budgets. A ForkUsers fork shares its parent's
// table slices, so an install on either is seen by both.
func sameLinkTables(a, b *Model) bool {
	return sameBacking(a.entryCurve, b.entryCurve) && sameBacking(a.curveSettings, b.curveSettings)
}

// sameBacking reports whether x and y are the same slice (both empty
// counts as the same).
func sameBacking[T any](x, y []T) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// deriveSector evaluates sector b's entries from scratch under the
// state's configuration: a fresh link row at the sector's tilt and
// received powers at its transmit power (0 when off-air). It leaves the
// per-grid aggregates to evaluateGrids.
func (s *State) deriveSector(b int) {
	off := s.Cfg.Off(b)
	powerMw := units.DbmToMw(s.Cfg.PowerDbm(b))
	row := s.newLinkRow(b)
	for i, ref := range s.Model.core.sectorEntries[b] {
		if off {
			s.rpMw[ref.Pos] = 0
		} else {
			s.rpMw[ref.Pos] = powerMw * row[i]
		}
	}
}

// newLinkRow builds sector b's linear link gains at its current tilt
// into a new row and installs it; the row it replaces is left as it was
// for any state still sharing it.
func (s *State) newLinkRow(b int) []float64 {
	m := s.Model
	tilt := s.Cfg.TiltDeg(b)
	entries := m.core.sectorEntries[b]
	row := make([]float64, len(entries))
	for i, ref := range entries {
		row[i] = units.DbmToMw(m.entryLinkDB(int(ref.Pos), tilt))
	}
	s.linkGain[b] = row
	return row
}

// evaluateGrids is the per-grid pass of a freshly allocated state whose
// entries are derived: it rescans every grid and accumulates the sector
// loads and the served-grid index in ascending grid order.
func (s *State) evaluateGrids() {
	m := s.Model
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
}

// rescanGrid recomputes a grid's total, best contributor, and max rate
// from the per-entry received powers. It does not touch loads.
func (s *State) rescanGrid(g int) {
	m := s.Model
	start, end := m.core.gridStart[g], m.core.gridStart[g+1]
	total := 0.0
	best := int32(-1)
	bestMw := 0.0
	for pos := start; pos < end; pos++ {
		rp := s.rpMw[pos]
		total += rp
		if rp > bestMw {
			bestMw = rp
			best = m.core.contribSector[pos]
		}
	}
	s.totalMw[g] = total
	s.bestSec[g] = best
	s.bestMw[g] = bestMw
	s.updateRate(g)
}

// updateRate refreshes rmax[g] from the cached aggregates, caching the
// CQI bucket's linear-SINR bounds alongside. While the new SINR stays in
// the cached bucket [sinrLo, sinrHi) the rate is a step function's same
// step, so rmax and the bounds are kept without re-running the threshold
// scan — the same test SpeculateBatch makes ("does this move change the
// grid's rate at all?"). An empty bucket ([0,0): no coverage, or a
// mapper without bounds) always rescans.
func (s *State) updateRate(g int) {
	if s.changed != nil {
		s.changed[g>>6] |= 1 << (g & 63)
	}
	if s.bestSec[g] < 0 || s.bestMw[g] <= 0 {
		s.rmax[g] = 0
		s.sinrLo[g] = 0
		s.sinrHi[g] = 0
	} else {
		interf := s.totalMw[g] - s.bestMw[g]
		if interf < 0 {
			interf = 0 // floating point guard
		}
		sinr := s.bestMw[g] / (s.Model.noiseMw + interf)
		switch {
		case sinr <= 0:
			s.rmax[g] = 0
			s.sinrLo[g] = 0
			s.sinrHi[g] = 0
		case s.sinrLo[g] <= sinr && sinr < s.sinrHi[g]:
			// Same CQI bucket: rmax and its bounds hold.
		default:
			s.rmax[g], s.sinrLo[g], s.sinrHi[g] = s.Model.rateBounds(sinr)
		}
	}
	// KPI aggregate repair: only when something the accounting depends on
	// actually changed — the skip keeps within-CQI-bucket touches free of
	// both the log10 and the (non-bit-neutral) ±repair.
	if s.aggOn && (s.aggSec[g] != s.bestSec[g] || s.aggRmax[g] != s.rmax[g] || s.aggW[g] != s.Model.ue[g]) {
		s.aggReaccount(g)
	}
}

// Apply applies a configuration change and incrementally updates the
// radio state. It returns the change that actually took effect (after
// power/tilt clamping), which is the exact inverse key for undo.
//
// Power-only changes take a fast path: the per-entry linear powers are
// scaled by a single factor instead of re-deriving the antenna pattern
// terms, which is what lets the search evaluate thousands of candidate
// configurations per second.
func (s *State) Apply(ch config.Change) (config.Change, error) {
	applied, err := s.Cfg.Apply(ch)
	if err != nil {
		return applied, err
	}
	if applied.IsZero() {
		return applied, nil
	}
	if applied.TiltDelta == 0 && !applied.TurnOff && !applied.TurnOn &&
		!s.Cfg.Off(applied.Sector) {
		s.applySectorPower(applied.Sector)
	} else {
		s.RefreshSector(applied.Sector)
	}
	return applied, nil
}

// MustApply is Apply that panics on error; for statically valid changes.
func (s *State) MustApply(ch config.Change) config.Change {
	applied, err := s.Apply(ch)
	if err != nil {
		panic(err)
	}
	return applied
}

// RefreshSector re-derives sector b's link budgets and received powers
// from the model under the state's current configuration and
// incrementally fixes the affected grids. Apply uses it for tilt and
// on/off changes; it is also needed after InstallLinkTable replaces the
// sector's link-budget source beneath an existing state. Entries whose
// received power is unchanged are left untouched, so refreshing against
// identical data cannot perturb the state. The sector gets a fresh
// link row; states sharing the old one keep it.
func (s *State) RefreshSector(b int) {
	off := s.Cfg.Off(b)
	powerMw := units.DbmToMw(s.Cfg.PowerDbm(b))
	b32 := int32(b)
	row := s.newLinkRow(b)
	for i, ref := range s.Model.core.sectorEntries[b] {
		var rp float64
		if !off {
			rp = powerMw * row[i]
		}
		s.updateEntry(int(ref.Grid), ref.Pos, b32, rp)
	}
}

// applySectorPower applies a power-only change to an on-air sector,
// reusing each entry's cached link gain so the antenna-pattern terms
// are not re-derived. Received power is DbmToMw(power) * gain, the
// expression every path uses (rather than scaling the old linear
// value), so incremental and fresh states stay bit-identical.
func (s *State) applySectorPower(b int) {
	powerMw := units.DbmToMw(s.Cfg.PowerDbm(b))
	b32 := int32(b)
	row := s.linkGain[b]
	for i, ref := range s.Model.core.sectorEntries[b] {
		if s.rpMw[ref.Pos] == 0 {
			continue
		}
		s.updateEntry(int(ref.Grid), ref.Pos, b32, powerMw*row[i])
	}
}

// updateEntry installs a new received power for one contributor entry
// and repairs the owning grid's aggregates, serving assignment and rate.
func (s *State) updateEntry(g int, pos int32, b32 int32, rp float64) {
	old := s.rpMw[pos]
	if rp == old {
		return
	}
	s.rpMw[pos] = rp
	s.totalMw[g] += rp - old

	switch {
	case s.bestSec[g] == b32:
		if rp >= old {
			// Still the strongest: only its level changed.
			s.bestMw[g] = rp
		} else {
			// The serving sector weakened: rescan for a new best.
			s.rescanBest(g)
		}
	case rp > s.bestMw[g] || (rp == s.bestMw[g] && b32 < s.bestSec[g]):
		// b overtakes the previous serving sector. Ties break toward
		// the lower sector ID — exactly how the full rescan resolves
		// them — so co-sited sectors with identical link budgets (e.g.
		// grids behind the site where both patterns hit the
		// front-to-back cap) serve deterministically.
		s.setServing(g, b32, rp)
	}
	s.updateRate(g)
}

// rescanBest re-derives the serving sector of grid g after its previous
// server weakened, updating loads on a serving change.
func (s *State) rescanBest(g int) {
	m := s.Model
	start, end := m.core.gridStart[g], m.core.gridStart[g+1]
	best := int32(-1)
	bestMw := 0.0
	for pos := start; pos < end; pos++ {
		if rp := s.rpMw[pos]; rp > bestMw {
			bestMw = rp
			best = m.core.contribSector[pos]
		}
	}
	if best == s.bestSec[g] {
		s.bestMw[g] = bestMw
		return
	}
	s.setServing(g, best, bestMw)
}

// setServing moves grid g to a new serving sector, maintaining loads,
// served-grid counts and the served-grid index, and marking both sectors
// for the KPI aggregates' next resync.
func (s *State) setServing(g int, sec int32, mw float64) {
	old := s.bestSec[g]
	if old >= 0 {
		s.load[old] -= s.Model.ue[g]
		s.served[old]--
		if s.served[old] == 0 {
			s.load[old] = 0 // clear floating point residue
		}
	}
	s.bestSec[g] = sec
	s.bestMw[g] = mw
	if sec >= 0 {
		s.load[sec] += s.Model.ue[g]
		s.served[sec]++
	}
	if s.aggOn {
		// Both lists change order, which fixes a rebuild's summation
		// order, even when g itself is not accounted.
		if old >= 0 {
			s.markAggDirty(old)
		}
		if sec >= 0 {
			s.markAggDirty(sec)
		}
	}
	if old >= 0 {
		list := s.servedList[old]
		p := s.servedPos[g]
		last := int32(len(list) - 1)
		moved := list[last]
		list[p] = moved
		s.servedPos[moved] = p
		s.servedList[old] = list[:last]
	}
	if sec >= 0 {
		s.servedPos[g] = int32(len(s.servedList[sec]))
		s.servedList[sec] = append(s.servedList[sec], int32(g))
	}
}

// ServingSector returns the serving sector of grid g, or -1 when the
// grid is out of coverage.
func (s *State) ServingSector(g int) int { return int(s.bestSec[g]) }

// SINRdB returns the grid's SINR in dB, or -Inf when out of coverage.
func (s *State) SINRdB(g int) float64 {
	if s.bestSec[g] < 0 || s.bestMw[g] <= 0 {
		return math.Inf(-1)
	}
	interf := s.totalMw[g] - s.bestMw[g]
	if interf < 0 {
		interf = 0
	}
	return 10 * math.Log10(s.bestMw[g]/(s.Model.noiseMw+interf))
}

// MaxRateBps returns r_max(g): the rate a lone UE would get on grid g.
func (s *State) MaxRateBps(g int) float64 { return s.rmax[g] }

// RateBps returns the actual per-UE rate on grid g (Eq. 4): the max rate
// divided by the serving sector's UE load (at least 1).
//
// Loads are accumulated in base UE units; the model's uniform ScaleUsers
// factor is applied here, at read time, so a whole-market load swing
// never has to rewrite per-sector sums (ueFactor is exactly 1.0 outside
// simulations, and x*1.0 == x in IEEE754).
func (s *State) RateBps(g int) float64 {
	best := s.bestSec[g]
	if best < 0 || s.rmax[g] <= 0 {
		return 0
	}
	n := s.load[best] * s.Model.ueFactor
	if n < 1 {
		n = 1
	}
	return s.rmax[g] / n
}

// Load returns the UE load of sector b (in effective UEs, i.e. with the
// model's uniform ScaleUsers factor applied).
func (s *State) Load(b int) float64 { return s.load[b] * s.Model.ueFactor }

// ServedGrids returns the number of grids served by sector b.
func (s *State) ServedGrids(b int) int { return int(s.served[b]) }

// Utility evaluates the overall network utility f(U(C)) (Section 5)
// under per-UE utility u: the UE-weighted sum of u(rate) over all grids.
func (s *State) Utility(u utility.Func) float64 {
	if s.cacheName != u.Name {
		s.resetUtilityMemo(u.Name)
	}
	f := s.Model.ueFactor
	total := 0.0
	for g, w := range s.Model.ue {
		if w == 0 {
			continue
		}
		rate := 0.0
		if best := s.bestSec[g]; best >= 0 && s.rmax[g] > 0 {
			n := s.load[best] * f
			if n < 1 {
				n = 1
			}
			rate = s.rmax[g] / n
		}
		if rate != s.cacheRate[g] {
			s.cacheRate[g] = rate
			s.cacheU[g] = u.U(rate)
		}
		total += w * f * s.cacheU[g]
	}
	return total
}

// UtilityRead evaluates the overall utility without touching the
// per-grid memo. Utility amortizes u(rate) across repeated evaluations
// of a state a search is mutating, but its memo write makes it unsafe
// on a state shared between goroutines; UtilityRead is the
// concurrency-safe evaluation for shared immutable states (an engine's
// baseline), at the cost of one full u(rate) pass per call.
func (s *State) UtilityRead(u utility.Func) float64 {
	f := s.Model.ueFactor
	total := 0.0
	for g, w := range s.Model.ue {
		if w != 0 {
			total += w * f * u.U(s.RateBps(g))
		}
	}
	return total
}

// UtilityIn is Utility restricted to the given grid cells.
func (s *State) UtilityIn(u utility.Func, grids []int) float64 {
	f := s.Model.ueFactor
	total := 0.0
	for _, g := range grids {
		if w := s.Model.ue[g]; w != 0 {
			total += w * f * u.U(s.RateBps(g))
		}
	}
	return total
}

// ServedUE returns the number of UEs currently in service.
func (s *State) ServedUE() float64 {
	total := 0.0
	for g, w := range s.Model.ue {
		if w != 0 && s.RateBps(g) > 0 {
			total += w
		}
	}
	return total * s.Model.ueFactor
}

// AssignUsersUniform distributes the per-sector nominal UE population
// uniformly across each sector's served grids, evaluated at the state's
// configuration — the paper's UE distribution assumption (Section 4.2).
// The distribution is stored on the Model (users do not move when
// configurations change) and the state's loads are refreshed.
func (s *State) AssignUsersUniform() {
	m := s.Model
	perSector := m.Net.Params.UEsPerSector
	if perSector <= 0 {
		perSector = 100
	}
	for i := range m.ue {
		m.ue[i] = 0
	}
	m.ueFactor = 1
	m.totalUE = 0
	for g := 0; g < m.Grid.NumCells(); g++ {
		best := s.bestSec[g]
		if best < 0 || s.rmax[g] <= 0 {
			continue
		}
		// Weight by served-grid count of the serving sector.
		if n := s.served[best]; n > 0 {
			w := perSector / float64(n)
			m.ue[g] = w
			m.totalUE += w
		}
	}
	s.RecomputeLoads()
}

// AssignUsersWeighted distributes each sector's nominal UE population
// across its served grids proportionally to weight(g) — the paper's
// "finer-grain information about UE distribution" extension (Section
// 4.2). A sector whose served grids all have zero weight falls back to
// uniform. The distribution is stored on the Model, and this state's
// loads are refreshed.
func (s *State) AssignUsersWeighted(weight func(g int) float64) {
	m := s.Model
	perSector := m.Net.Params.UEsPerSector
	if perSector <= 0 {
		perSector = 100
	}
	for i := range m.ue {
		m.ue[i] = 0
	}
	m.ueFactor = 1
	m.totalUE = 0

	// Per-sector weight totals over served grids.
	weightSum := make([]float64, m.Net.NumSectors())
	for g := 0; g < m.Grid.NumCells(); g++ {
		if best := s.bestSec[g]; best >= 0 && s.rmax[g] > 0 {
			weightSum[best] += weight(g)
		}
	}
	for g := 0; g < m.Grid.NumCells(); g++ {
		best := s.bestSec[g]
		if best < 0 || s.rmax[g] <= 0 {
			continue
		}
		var w float64
		if weightSum[best] > 0 {
			w = perSector * weight(g) / weightSum[best]
		} else if n := s.served[best]; n > 0 {
			w = perSector / float64(n)
		}
		m.ue[g] = w
		m.totalUE += w
	}
	s.RecomputeLoads()
}

// RecomputeLoads rebuilds the per-sector loads from the current serving
// map and UE distribution. Needed after the Model's UE distribution
// changes beneath an existing state. The UE weights underneath the KPI
// aggregates may have changed, so they are switched off; the serving
// map, and with it the served-grid index, is untouched.
func (s *State) RecomputeLoads() {
	s.aggOn = false
	for i := range s.load {
		s.load[i] = 0
		s.served[i] = 0
	}
	for g := 0; g < s.Model.Grid.NumCells(); g++ {
		if best := s.bestSec[g]; best >= 0 {
			s.load[best] += s.Model.ue[g]
			s.served[best]++
		}
	}
}

// DegradedGrids returns the grids (restricted to those carrying UEs)
// whose per-UE rate under s is strictly worse than under base — the
// paper's affected grid set G fed to the search algorithm.
func (s *State) DegradedGrids(base *State) []int {
	var out []int
	for g := range s.Model.ue {
		if s.Model.ue[g] == 0 {
			continue
		}
		if s.RateBps(g) < base.RateBps(g) {
			out = append(out, g)
		}
	}
	return out
}

// SINRImprovers returns the sectors from candidates whose power increase
// by deltaDb would strictly raise the SINR of at least one grid in
// affected — step (i) of Algorithm 1 (the set β of "conditionally good"
// changes; the paper's line 4 test "can improve g's SINR with T units of
// transmission power change"). The comparison is on continuous SINR, not
// the MCS-quantized rate, so small power steps that do not yet cross a
// CQI boundary still qualify. Off-air sectors and sectors already at
// maximum power are skipped.
func (s *State) SINRImprovers(affected []int, candidates []int, deltaDb float64) []int {
	if deltaDb <= 0 || len(affected) == 0 {
		return nil
	}
	m := s.Model
	// Dense membership scratch instead of a per-call map: the search hot
	// loop calls SINRImprovers every step, and the map allocation plus
	// hashing dominated its cost on large markets.
	if s.affectedMark == nil {
		s.affectedMark = make([]bool, m.Grid.NumCells())
	}
	for _, g := range affected {
		s.affectedMark[g] = true
	}
	factor := math.Pow(10, deltaDb/10)
	var out []int
	for _, b := range candidates {
		if s.Cfg.Off(b) || s.Cfg.AtMaxPower(b) {
			continue
		}
		for _, ref := range m.core.sectorEntries[b] {
			if !s.affectedMark[ref.Grid] {
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
			newSinr := newBest / (m.noiseMw + interf)
			oldSinr := s.bestMw[g] / (m.noiseMw + oldInterf)
			if newSinr > oldSinr*(1+1e-12) {
				out = append(out, b)
				break
			}
		}
	}
	for _, g := range affected {
		s.affectedMark[g] = false
	}
	return out
}

// HandoverUEs returns the number of UEs whose serving sector differs
// between states a and b (both over the same model). Used to count the
// synchronized handovers a configuration step triggers.
func HandoverUEs(a, b *State) float64 {
	f := a.Model.ueFactor
	total := 0.0
	for g, w := range a.Model.ue {
		if w != 0 && a.bestSec[g] != b.bestSec[g] {
			total += w * f
		}
	}
	return total
}
