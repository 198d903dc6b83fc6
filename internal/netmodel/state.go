package netmodel

import (
	"math"
	"sync/atomic"

	"magus/internal/config"
	"magus/internal/units"
	"magus/internal/utility"
)

// State is the full evaluation of one configuration against a Model:
// per-grid serving sector, SINR and rate level, and per-sector load.
// Apply performs incremental re-evaluation after a single-sector change;
// Clone snapshots the state for later comparison.
//
// A State owns its Config: mutate the configuration only through Apply
// so the cached radio state stays consistent.
type State struct {
	Model *Model
	Cfg   *config.Config

	powerMw []float64 // per sector: DbmToMw of the power its row is read at, 0 off-air
	totalMw []float64 // per grid: sum of all contributors, mW
	bestSec []int32   // per grid: serving sector, -1 if none
	bestMw  []float64 // per grid: serving sector received power, mW
	level   []uint8   // per grid: rate level at current SINR (Model.levels)
	load    []float64 // per sector: sum of UE weights over served grids
	served  []int32   // per sector: number of served grids

	// Per-sector link rows: linkGain[b][i] is the linear link gain,
	// DbmToMw of the link budget (base loss plus vertical attenuation at
	// the sector's current tilt), of sector b's i-th entry in
	// sectorEntries[b] order. Every received power is
	// powerMw[b] * linkGain[b][i], one exp per sector and one multiply
	// per entry, and no state keeps a per-entry copy. Each row is the
	// Model's cached row for the sector's tilt (gainRow), installed by
	// NewState or RefreshSector and never written, so states, Clones
	// and forks at one tilt share one row: a copy costs one header per
	// sector, and a retilt costs a header once the row is cached.
	linkGain [][]float64

	// Fragile-grid cache for SpeculateBatch's weak-entry skip (see
	// fragile.go): radioGen counts updateRate calls, through which every
	// radio mutation passes, and frag holds the fragile set of the
	// generation it was built at. Clone shares the set; NewState starts
	// without one. Robustness is not kept up to date inside
	// updateRate: the window's Apply-heavy loops would pay for it on
	// every touched grid, while the set is only read by scorers.
	radioGen uint64
	frag     atomic.Pointer[fragileSet]

	// Scratch for SINRImprovers' affected-grid membership test, reused
	// across calls (the search hot loop calls it once per step). Always
	// all-false between calls; never cloned.
	affectedMark []bool

	// Per-sector served-grid index: servedList[b] holds exactly the grids
	// with bestSec == b, servedPos[g] the grid's slot in its list, so the
	// "which grids does this load shift touch?" sweeps in SpeculateBatch
	// and the KPI aggregates run over the served set instead of the (much
	// larger) contributor entry list. Built by NewState, copied by Clone
	// and maintained O(1) by setServing.
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
	aggBk    []aggBucket // per (sector, level): sector b's level k at b·levels + k
	aggSec   []int32     // per grid: sector accounted under (-1 none)
	aggW     []float64   // per grid: accounted base weight
	aggLvl   []uint8     // per grid: accounted rate level
	aggSt    []aggSector // per sector: totals, λ memo, dirty mark
	aggDirty []int32     // sectors marked dirty since the last rebuild
	changed  []uint64
}

// NewState fully evaluates cfg against the model: each sector gets the
// model's link row for its tilt and its power (one exp), then one
// sector-major pass sums every row into its grids and one ascending
// pass over the grids sets rates, loads and the served-grid index. The
// model's rows are shared and only read, so any number of goroutines
// may build states over one model, or over ForkUsers forks of it, at
// once. The state takes ownership of cfg (clone it first if the caller
// needs the original).
func (m *Model) NewState(cfg *config.Config) *State {
	s := m.newStateShell(cfg)
	s.evaluateGrids()
	return s
}

// newStateShell allocates a state for cfg and installs every sector's
// row and power, leaving the per-grid evaluation to the caller.
func (m *Model) newStateShell(cfg *config.Config) *State {
	s := &State{
		Model:    m,
		Cfg:      cfg,
		powerMw:  make([]float64, m.Net.NumSectors()),
		totalMw:  make([]float64, m.Grid.NumCells()),
		bestSec:  make([]int32, m.Grid.NumCells()),
		bestMw:   make([]float64, m.Grid.NumCells()),
		level:    make([]uint8, m.Grid.NumCells()),
		load:     make([]float64, m.Net.NumSectors()),
		served:   make([]int32, m.Net.NumSectors()),
		linkGain: make([][]float64, m.Net.NumSectors()),
	}
	for b := range s.linkGain {
		s.installSector(b)
	}
	return s
}

// Clone returns an independent snapshot of the state (the configuration
// is deep-copied too), served-grid index included. The link rows and the
// fragile-grid set are shared, not copied: no state writes into an
// installed row or a published set. The KPI aggregates, the change log
// and the SINRImprovers scratch are NOT copied: zero values mean
// "off"/"unallocated".
func (s *State) Clone() *State {
	c := &State{
		Model:     s.Model,
		Cfg:       s.Cfg.Clone(),
		powerMw:   append([]float64(nil), s.powerMw...),
		linkGain:  append([][]float64(nil), s.linkGain...),
		totalMw:   append([]float64(nil), s.totalMw...),
		bestSec:   append([]int32(nil), s.bestSec...),
		bestMw:    append([]float64(nil), s.bestMw...),
		level:     append([]uint8(nil), s.level...),
		load:      append([]float64(nil), s.load...),
		served:    append([]int32(nil), s.served...),
		servedPos: append([]int32(nil), s.servedPos...),
	}
	c.radioGen = s.radioGen
	c.frag.Store(s.frag.Load())
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

// CloneOn is Clone onto fork, a ForkUsers fork of s's model: the copy
// reads and writes fork's UE distribution instead of s's. A copy of a
// state built by NewState equals the state NewState builds on fork from
// the same configuration, bit for bit, so a simulation can start from
// its baseline without rebuilding it. It panics unless fork shares s's
// core.
func (s *State) CloneOn(fork *Model) *State {
	if fork.core != s.Model.core {
		panic("netmodel: CloneOn onto a model with another core")
	}
	c := s.Clone()
	c.Model = fork
	return c
}

// installSector installs the model's cached link row for sector b's
// current tilt and the power it is read at (0 off-air); the row it
// replaces is left as it was for any state still sharing it.
func (s *State) installSector(b int) {
	s.linkGain[b] = s.Model.gainRow(b, s.Cfg.TiltIndex(b))
	s.powerMw[b] = 0
	if !s.Cfg.Off(b) {
		s.powerMw[b] = units.DbmToMw(s.Cfg.PowerDbm(b))
	}
}

// evaluateGrids evaluates every grid of a new state whose sectors are
// installed. The first pass walks each sector's entries and row in
// ascending sector order, adding each received power to its grid's
// total; a sector takes a grid's lead only when strictly stronger, so
// ties go to the lower sector ID. A grid's contributors are stored in
// strictly ascending sector order (NewCore checks it), so every grid
// sees the same additions and comparisons, in the same order, as a scan
// of its own entries (scanEntries). The second pass, in ascending grid
// order, sets the rates, sums the loads and lays the served-grid lists
// out in one backing array, as Clone does.
func (s *State) evaluateGrids() {
	m := s.Model
	totalMw, bestSec, bestMw := s.totalMw, s.bestSec, s.bestMw
	for g := range bestSec {
		bestSec[g] = -1
	}
	for b, refs := range m.core.sectorEntries {
		powerMw, row := s.powerMw[b], s.linkGain[b][:len(refs)]
		b32 := int32(b)
		for i, ref := range refs {
			g := ref.Grid
			rp := powerMw * row[i]
			totalMw[g] += rp
			if rp > bestMw[g] {
				bestMw[g] = rp
				bestSec[g] = b32
			}
		}
	}

	s.servedPos = make([]int32, len(bestSec))
	numServed := 0
	for g, b := range bestSec {
		s.updateRate(g)
		if b >= 0 {
			s.load[b] += m.ue[g]
			s.servedPos[g] = s.served[b]
			s.served[b]++
			numServed++
		}
	}
	// Capacity-capped windows, as in Clone: setServing's first append
	// to a list reallocates only that list.
	flat := make([]int32, numServed)
	s.servedList = make([][]int32, len(s.served))
	off := int32(0)
	for b, n := range s.served {
		s.servedList[b] = flat[off : off+n : off+n]
		off += n
	}
	for g, b := range bestSec {
		if b >= 0 {
			s.servedList[b][s.servedPos[g]] = int32(g)
		}
	}
}

// scanEntries folds the received powers of the contributor entries at
// positions [lo, hi), powerMw[b] * linkGain[b][i] each, into a grid
// scan's running sum and strongest sector, in ascending position order;
// a scan starts from (0, -1, 0). A later entry takes the lead only when
// strictly stronger, so ties go to the lower sector ID.
func (s *State) scanEntries(lo, hi int32, total float64, best int32, bestMw float64) (float64, int32, float64) {
	c := s.Model.core
	secs, idx := c.contribSector[lo:hi], c.entryIdx[lo:hi]
	powerMw, linkGain := s.powerMw, s.linkGain
	for k, b := range secs {
		rp := powerMw[b] * linkGain[b][idx[k]]
		total += rp
		if rp > bestMw {
			bestMw = rp
			best = b
		}
	}
	return total, best, bestMw
}

// updateRate refreshes level[g] from the cached aggregates. While the
// new SINR stays inside the level's bounds [lo, hi) the grid keeps its
// level — the same test SpeculateBatch makes ("does this move change
// the grid's rate at all?") — and otherwise walks the level table to the
// level that holds it. A grid without coverage (SINR 0) is at level 0.
func (s *State) updateRate(g int) {
	s.radioGen++
	if s.changed != nil {
		s.changed[g>>6] |= 1 << (g & 63)
	}
	k := stepLevel(s.Model.levels, s.level[g], s.SINR(g))
	s.level[g] = k
	// KPI aggregate repair: only when something the accounting depends on
	// actually changed — the skip keeps within-level touches free of the
	// (non-bit-neutral) ±repair.
	if s.aggOn && (s.aggSec[g] != s.bestSec[g] || s.aggLvl[g] != k || s.aggW[g] != s.Model.ue[g]) {
		s.aggReaccount(g)
	}
}

// Apply applies a configuration change and incrementally updates the
// radio state. It returns the change that actually took effect (after
// power/tilt clamping), which is the exact inverse key for undo.
//
// Power-only changes take a fast path: the sector's installed link row
// is read at the new power instead of re-deriving the antenna pattern
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
// identical data cannot perturb the state. The sector gets the model's
// row for its tilt; states sharing the old one keep it, and the old
// powers are read from it.
func (s *State) RefreshSector(b int) {
	oldMw, oldRow := s.powerMw[b], s.linkGain[b]
	s.installSector(b)
	powerMw, row := s.powerMw[b], s.linkGain[b]
	b32 := int32(b)
	for i, ref := range s.Model.core.sectorEntries[b] {
		s.updateEntry(int(ref.Grid), b32, oldMw*oldRow[i], powerMw*row[i])
	}
}

// applySectorPower applies a power-only change to an on-air sector,
// reading its installed link row at the new power so the
// antenna-pattern terms are not re-derived. Received power is
// DbmToMw(power) * gain, the expression every path uses (rather than
// scaling the old linear value), so incremental and fresh states stay
// bit-identical.
func (s *State) applySectorPower(b int) {
	oldMw := s.powerMw[b]
	powerMw := units.DbmToMw(s.Cfg.PowerDbm(b))
	s.powerMw[b] = powerMw
	b32 := int32(b)
	row := s.linkGain[b]
	for i, ref := range s.Model.core.sectorEntries[b] {
		old := oldMw * row[i]
		if old == 0 {
			continue
		}
		s.updateEntry(int(ref.Grid), b32, old, powerMw*row[i])
	}
}

// updateEntry repairs grid g's aggregates, serving assignment and rate
// after sector b32's received power there moved from old to rp. The
// sector's powerMw and link row already read rp.
func (s *State) updateEntry(g int, b32 int32, old, rp float64) {
	if rp == old {
		return
	}
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
	c := s.Model.core
	_, best, bestMw := s.scanEntries(c.gridStart[g], c.gridStart[g+1], 0, -1, 0)
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

// SINR returns grid g's linear SINR, the value its rate level holds, or
// 0 when out of coverage.
func (s *State) SINR(g int) float64 {
	if s.bestSec[g] < 0 || s.bestMw[g] <= 0 {
		return 0
	}
	interf := s.totalMw[g] - s.bestMw[g]
	if interf < 0 {
		interf = 0 // floating point guard
	}
	return s.bestMw[g] / (s.Model.noiseMw + interf)
}

// SINRdB returns the grid's SINR in dB, or -Inf when out of coverage.
func (s *State) SINRdB(g int) float64 { return 10 * math.Log10(s.SINR(g)) }

// MaxRateBps returns r_max(g): the rate a lone UE would get on grid g.
func (s *State) MaxRateBps(g int) float64 { return s.Model.levels[s.level[g]].rate }

// RateBps returns the actual per-UE rate on grid g (Eq. 4): the max rate
// divided by the serving sector's UE load (at least 1).
//
// Loads are accumulated in base UE units; the model's uniform ScaleUsers
// factor is applied here, at read time, so a whole-market load swing
// never has to rewrite per-sector sums (ueFactor is exactly 1.0 outside
// simulations, and x*1.0 == x in IEEE754).
func (s *State) RateBps(g int) float64 {
	best := s.bestSec[g]
	if best < 0 || s.level[g] == 0 {
		return 0
	}
	n := s.load[best] * s.Model.ueFactor
	if n < 1 {
		n = 1
	}
	return s.Model.levels[s.level[g]].rate / n
}

// Load returns the UE load of sector b (in effective UEs, i.e. with the
// model's uniform ScaleUsers factor applied).
func (s *State) Load(b int) float64 { return s.load[b] * s.Model.ueFactor }

// ServedGrids returns the number of grids served by sector b.
func (s *State) ServedGrids(b int) int { return int(s.served[b]) }

// Utility evaluates the overall network utility f(U(C)) (Section 5)
// under per-UE utility u: the UE-weighted sum of u(rate) over all grids,
// in ascending grid order. It only reads the state, so any number of
// goroutines may evaluate one state at once.
func (s *State) Utility(u utility.Func) float64 {
	return s.utilitySum(u, s.lambdas(u, nil), 0, s.Model.Grid.NumCells())
}

// utilitySum is the utility of the grids in [lo, hi), summed in
// ascending order. Under the log utility lam holds every sector's λ
// (lambdas), and a grid's per-UE term is max(L − λ, 0) with L the l of
// its rate level: in reals, log10 of its rate in kbps clamped at
// 1 kbps, Performance.U of its RateBps, without a log10 per grid. Any
// other objective (lam nil) prices u.U(RateBps).
func (s *State) utilitySum(u utility.Func, lam []float64, lo, hi int) float64 {
	m := s.Model
	lv := m.levels
	f := m.ueFactor
	total := 0.0
	for g := lo; g < hi; g++ {
		w := m.ue[g]
		if w == 0 {
			continue
		}
		if lam == nil {
			total += w * f * u.U(s.RateBps(g))
		} else if b := s.bestSec[g]; b >= 0 {
			total += w * f * max(lv[s.level[g]].l-lam[b], 0)
		}
	}
	return total
}

// lambdas returns every sector's λ at the state's loads, one log10 per
// sector, when u is the log utility (nil otherwise). It writes into lam
// when lam has room for every sector.
func (s *State) lambdas(u utility.Func, lam []float64) []float64 {
	if u.Name != utility.Performance.Name {
		return nil
	}
	if len(lam) < len(s.load) {
		lam = make([]float64, len(s.load))
	}
	lf := math.Log10(s.Model.ueFactor)
	for b, ld := range s.load {
		lam[b] = lambdaOf(logLoad(ld), lf)
	}
	return lam
}

// logLoad is log10 of a sector's base load, the load-dependent part of
// its λ. A load left a residue below zero by the ± repair reads as
// empty (log10 0 = −Inf, so λ = 0).
func logLoad(ld float64) float64 { return math.Log10(max(ld, 0)) }

// lambdaOf is a sector's λ = max(lg + lf, 0) from lg = logLoad(load)
// and lf = log10 of the model's load factor: log10 of the effective
// load clamped at one UE, the divisor of Eq. 4 under the log. At f = 1
// it is exactly log10(max(load, 1)).
func lambdaOf(lg, lf float64) float64 { return max(lg+lf, 0) }

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
		if best < 0 || s.level[g] == 0 {
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
		if best := s.bestSec[g]; best >= 0 && s.level[g] != 0 {
			weightSum[best] += weight(g)
		}
	}
	for g := 0; g < m.Grid.NumCells(); g++ {
		best := s.bestSec[g]
		if best < 0 || s.level[g] == 0 {
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
//
// A candidate is settled from the grids it serves first: a power-up
// raises the SINR of every grid its sector serves, so one affected grid
// in the (short) served list decides membership, and only the other
// candidates pay the scan over their contributor entries. Both passes
// apply the same per-entry test, so the set is the one the entry scan
// alone gives.
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
		if s.servesImproved(b, factor) || s.coversImproved(b, factor) {
			out = append(out, b)
		}
	}
	for _, g := range affected {
		s.affectedMark[g] = false
	}
	return out
}

// servesImproved reports whether scaling sector b's power by factor
// raises the SINR of an affected grid b serves. The serving entry's
// received power is the grid's bestMw.
func (s *State) servesImproved(b int, factor float64) bool {
	for _, g := range s.servedList[b] {
		if s.affectedMark[g] && s.sinrRises(int(g), int32(b), s.bestMw[g], factor) {
			return true
		}
	}
	return false
}

// coversImproved reports whether scaling sector b's power by factor
// raises the SINR of any affected grid among b's contributor entries.
func (s *State) coversImproved(b int, factor float64) bool {
	powerMw, row := s.powerMw[b], s.linkGain[b]
	for i, ref := range s.Model.core.sectorEntries[b] {
		if s.affectedMark[ref.Grid] && s.sinrRises(int(ref.Grid), int32(b), powerMw*row[i], factor) {
			return true
		}
	}
	return false
}

// sinrRises is SINRImprovers' per-entry test: does scaling sector b's
// received power old at grid g by factor strictly raise g's SINR?
func (s *State) sinrRises(g int, b int32, old, factor float64) bool {
	if old <= 0 {
		return false
	}
	noise := s.Model.noiseMw
	newRp := old * factor
	newTotal := s.totalMw[g] + newRp - old
	newBest := s.bestMw[g]
	if s.bestSec[g] == b || newRp > newBest {
		newBest = newRp
	}
	interf := max(newTotal-newBest, 0)
	oldInterf := max(s.totalMw[g]-s.bestMw[g], 0)
	newSinr := newBest / (noise + interf)
	oldSinr := s.bestMw[g] / (noise + oldInterf)
	return newSinr > oldSinr*(1+1e-12)
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
