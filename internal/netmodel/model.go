// Package netmodel implements the paper's cellular coverage and capacity
// analysis model (Section 4): the area is divided into a grid, and for
// each grid cell the model computes received power from every relevant
// sector (Eq. 1), the serving sector and SINR (Eq. 2), the sector load
// (Eq. 3), and the per-UE rate (Eq. 4) via the LTE MCS/TBS pipeline.
//
// The data splits three ways by mutability and sharing:
//
//   - ModelCore (core.go) is the immutable, configuration-independent
//     substrate — the per-(grid, sector) "contributor" entries (the
//     in-memory analogue of the paper's Atoll path-loss matrices), the
//     per-sector entry index and the cell-center table. It is built (or
//     snapshot-loaded, zero-copy) once per market and shared read-only
//     by every worker and simulation fork of that market's engine.
//   - Model is a thin per-use view over a core: the grid, link model and
//     noise floor plus the small mutable parts — the UE density, the
//     tabulated link-table overrides and the lazily built per-tilt
//     link-gain rows (gainrows.go). Forking a model (ForkUsers) shares
//     the core, the tables and the rows, and copies only the UE
//     distribution.
//   - State evaluates one configuration against a Model and supports
//     fast incremental updates when a single sector's power, tilt, or
//     on-air status changes — this is what lets the search algorithm
//     explore thousands of candidate configurations quickly ("quickly
//     estimate the best power and tilt configuration", Section 1).
package netmodel

import (
	"fmt"

	"magus/internal/geo"
	"magus/internal/lte"
	"magus/internal/propagation"
	"magus/internal/topology"
	"magus/internal/units"
)

// Params configure model construction.
type Params struct {
	// CellSizeM is the grid cell edge in meters (paper: 100 m).
	// Default 100.
	CellSizeM float64
	// BandwidthHz is the LTE carrier bandwidth (paper: single 10 MHz
	// carrier). Default 10e6.
	BandwidthHz float64
	// NoiseFigureDB is the UE receiver noise figure. Default 9.
	NoiseFigureDB float64
	// CutoffRadiusM drops sector-grid pairs beyond this distance
	// (paper: each Atoll matrix covers 60x60 km, i.e. 30 km radius).
	// Default 30000.
	CutoffRadiusM float64
	// Link overrides the rate pipeline (default: the LTE CQI/MCS/TBS
	// model for BandwidthHz). Use e.g. umts.NewLinkModel() to analyze a
	// UMTS carrier.
	Link RateMapper
	// FloorBelowNoiseDB drops contributors whose best-case received
	// power (max power, boresight) is more than this many dB below the
	// thermal noise floor; they can affect neither signal nor
	// interference materially. Default 20.
	FloorBelowNoiseDB float64
	// BuildWorkers bounds the goroutines used to construct the
	// contributor entries (0 = GOMAXPROCS, 1 = sequential). Every value
	// yields bit-identical models (see build.go); the knob exists for
	// benchmarks and golden tests, and is not part of a model's identity
	// (the snapshot cache excludes it from its key).
	BuildWorkers int
	// ApproxTiltElevation reproduces the paper's tilt simplification
	// (Section 5): instead of the terrain-aware elevation angle per
	// (sector, grid) pair, the vertical-pattern angle is derived from a
	// flat-earth geometry shared across sectors — the analogue of the
	// paper's single tilt delta matrix applied to every sector. Cheaper
	// data, slightly wrong where terrain matters; compare with the
	// ablation benchmark.
	ApproxTiltElevation bool
}

func (p *Params) applyDefaults() {
	if p.CellSizeM <= 0 {
		p.CellSizeM = 100
	}
	if p.BandwidthHz <= 0 {
		p.BandwidthHz = 10e6
	}
	if p.NoiseFigureDB <= 0 {
		p.NoiseFigureDB = 9
	}
	if p.CutoffRadiusM <= 0 {
		p.CutoffRadiusM = 30000
	}
	if p.FloorBelowNoiseDB <= 0 {
		p.FloorBelowNoiseDB = 20
	}
}

// entryRef locates one contributor entry from the owning sector's side.
type entryRef struct {
	Grid int32 // flat grid index
	Pos  int32 // index into the contributor arrays
}

// RateMapper converts link quality to achievable full-carrier downlink
// rate. lte.LinkModel is the paper's LTE pipeline; other radio access
// technologies (e.g. the UMTS/HSDPA model in internal/umts) plug in the
// same way — the paper notes that planned upgrades "impact all radio
// access technologies (such as LTE, UMTS as well as GSM)".
type RateMapper interface {
	// MaxRateBpsLinear returns the full-carrier rate for a linear SINR.
	MaxRateBpsLinear(sinrLin float64) float64
	// MaxRateBps is the dB-domain equivalent.
	MaxRateBps(sinrDB float64) float64
	// PeakRateBps is the technology's single-user ceiling.
	PeakRateBps() float64
	// MinSINRdB is the out-of-service threshold (the paper's SINR_min).
	MinSINRdB() float64
}

// Model is one view over a market's analysis substrate: an immutable
// shared core plus this view's own mutable UE distribution and link
// table overrides.
type Model struct {
	Net  *topology.Network
	SPM  *propagation.SPM
	Link RateMapper
	Grid *geo.Grid

	params  Params
	noiseMw float64

	// core is the shared immutable substrate; see core.go.
	core *ModelCore

	// Tabulated per-tilt link budgets (InstallLinkTable): when
	// curveSettings[b] is non-nil, entries of sector b with a non-nil
	// entryCurve answer entryLinkDB from the table instead of the
	// analytic pattern. Nil until the first install. Per-Model, not on
	// the core: ingesting operational matrices for one engine must not
	// leak into other engines sharing the core.
	curveSettings [][]float64
	entryCurve    [][]float64

	// rows caches the per-(sector, tilt) link-gain rows every state over
	// this model installs; see gainrows.go. Shared by ForkUsers forks
	// for as long as they share the link tables above.
	rows *LinkRows

	// ue is the per-grid UE count (fractional), set by AssignUsersUniform.
	// The effective weight of grid g is ue[g] * ueFactor: the factor
	// carries uniform whole-market load swings (the simulator's diurnal
	// tide) so ScaleUsers is O(1) instead of rewriting every cell, while
	// localized changes (ScaleUsersAt, SetUsers) edit the per-grid base.
	// ueFactor is exactly 1.0 outside simulations, and x*1.0 == x in
	// IEEE754, so planning paths are bit-identical to the pre-factor
	// representation.
	ue       []float64
	ueFactor float64
	totalUE  float64
}

// NewModel builds the analysis model for net over region. The SPM
// supplies path loss; params may be zero for defaults.
func NewModel(net *topology.Network, spm *propagation.SPM, region geo.Rect, params Params) (*Model, error) {
	m, err := newModelShell(net, spm, region, params)
	if err != nil {
		return nil, err
	}
	m.core = m.buildContributors()
	return m, nil
}

// newModelShell constructs everything of a Model except the core —
// shared by NewModel (which builds one) and NewModelFromContributors
// (which adopts snapshot arrays).
func newModelShell(net *topology.Network, spm *propagation.SPM, region geo.Rect, params Params) (*Model, error) {
	params.applyDefaults()
	grid, err := geo.NewGrid(region, params.CellSizeM)
	if err != nil {
		return nil, fmt.Errorf("netmodel: %w", err)
	}
	link := params.Link
	if link == nil {
		lteLink, err := lte.NewLinkModel(params.BandwidthHz)
		if err != nil {
			return nil, fmt.Errorf("netmodel: %w", err)
		}
		link = lteLink
	}
	return &Model{
		Net:      net,
		SPM:      spm,
		Link:     link,
		Grid:     grid,
		params:   params,
		noiseMw:  units.DbmToMw(units.ThermalNoiseDbm(params.BandwidthHz, params.NoiseFigureDB)),
		rows:     newLinkRows(net),
		ue:       make([]float64, grid.NumCells()),
		ueFactor: 1,
	}, nil
}

// Core returns the model's shared immutable substrate.
func (m *Model) Core() *ModelCore { return m.core }

// MustNewModel is NewModel that panics on error.
func MustNewModel(net *topology.Network, spm *propagation.SPM, region geo.Rect, params Params) *Model {
	m, err := NewModel(net, spm, region, params)
	if err != nil {
		panic(err)
	}
	return m
}

// NumContributors returns the total number of (grid, sector) contributor
// entries, a measure of the model's radio coupling density.
func (m *Model) NumContributors() int { return len(m.core.contribSector) }

// NoiseMw returns the thermal noise floor in milliwatts.
func (m *Model) NoiseMw() float64 { return m.noiseMw }

// Params returns the parameters used to build the model.
func (m *Model) Params() Params { return m.params }

// UE returns the UE count assigned to grid cell g.
func (m *Model) UE(g int) float64 { return m.ue[g] * m.ueFactor }

// TotalUE returns the total number of UEs placed on the model.
func (m *Model) TotalUE() float64 { return m.totalUE * m.ueFactor }

// UEFactor returns the current uniform load multiplier (1 unless
// ScaleUsers has been called).
func (m *Model) UEFactor() float64 { return m.ueFactor }

// UEBase returns grid g's base UE weight without the uniform ScaleUsers
// factor — for consumers that maintain running sums in base units and
// re-apply the factor themselves at read time (the simulator's
// incremental KPI meter).
func (m *Model) UEBase(g int) float64 { return m.ue[g] }

// ScaleUsers multiplies the model's entire UE distribution by factor
// (e.g. to split a population across orthogonal carriers, or the
// simulator's per-tick diurnal load swing). O(1): the factor is folded
// into every UE read instead of rewriting the grid. States over m need
// no refresh at all — their per-sector loads are kept in base units and
// pick the factor up at read time.
func (m *Model) ScaleUsers(factor float64) {
	m.ueFactor *= factor
}

// ForkUsers returns a shallow copy of the model that shares the
// immutable core (grid, contributor entries, link model), the link
// tables and the per-tilt row cache, but owns an independent UE
// distribution. Simulations that evolve load over time fork the model
// first, so a cached engine shared with concurrent planners never sees
// their mutations, while the rows they build warm the engine's cache.
// States built on the fork see the fork's users; states built on m keep
// seeing m's.
func (m *Model) ForkUsers() *Model {
	fork := *m
	fork.ue = append([]float64(nil), m.ue...)
	return &fork
}

// ScaleUsersAt multiplies the UE weight of the given grid cells by
// factor (a localized load surge or drain). The scale edits the
// per-grid base weights, composing with the uniform ScaleUsers factor.
// States over m must call RecomputeLoads (or NoteUsersScaledAt, which
// is O(len(grids))) afterwards.
func (m *Model) ScaleUsersAt(grids []int, factor float64) {
	for _, g := range grids {
		old := m.ue[g]
		m.ue[g] = old * factor
		m.totalUE += m.ue[g] - old
	}
}

// CopyUsersFrom installs another model's UE distribution onto m. The
// two models must share grid dimensions (they typically differ only in
// their propagation detail — e.g. a planning model versus a
// ground-truth model of the same market). Existing states over m must
// call RecomputeLoads afterwards.
func (m *Model) CopyUsersFrom(other *Model) error {
	if len(m.ue) != len(other.ue) {
		return fmt.Errorf("netmodel: grid mismatch: %d vs %d cells", len(m.ue), len(other.ue))
	}
	copy(m.ue, other.ue)
	m.ueFactor = other.ueFactor
	m.totalUE = other.totalUE
	return nil
}

// entryLinkDB returns the full link budget of entry pos at the given
// tilt, in dB: base loss (propagation + clutter + horizontal pattern +
// boresight gain) plus vertical pattern attenuation. The received power
// is then transmit power + link budget.
func (m *Model) entryLinkDB(pos int, tiltDeg float64) float64 {
	b := m.core.contribSector[pos]
	if m.entryCurve != nil {
		if curve := m.entryCurve[pos]; curve != nil {
			return interpCurve(m.curveSettings[b], curve, tiltDeg)
		}
	}
	sec := &m.Net.Sectors[b]
	vatt := sec.Pattern.VerticalAttenuation(float64(m.core.contribElev[pos]), tiltDeg)
	return float64(m.core.contribBaseDB[pos]) + vatt
}

// InterferingSectorCount counts the sectors whose best-case received
// power exceeds the noise floor minus marginDB somewhere within region.
// This reproduces the paper's "sectors that interfere with the sectors in
// our area" density statistic (26 rural / 55 suburban / 178 urban).
func (m *Model) InterferingSectorCount(region geo.Rect, marginDB float64) int {
	floorDbm := units.MwToDbm(m.noiseMw) - marginDB
	count := 0
	for b := range m.Net.Sectors {
		sec := &m.Net.Sectors[b]
		for _, ref := range m.core.sectorEntries[b] {
			if !region.Contains(m.core.cellCenters[ref.Grid]) {
				continue
			}
			if sec.MaxPowerDbm+float64(m.core.contribBaseDB[ref.Pos]) >= floorDbm {
				count++
				break
			}
		}
	}
	return count
}

// CoverageGrids appends to dst the flat grid indices where sector b's
// best-case received power (max transmit power, boresight link budget)
// reaches the noise floor minus marginDB — the same reach criterion as
// InterferingSectorCount, reported per grid instead of per sector. The
// indices come out in ascending grid order (the per-sector entry index
// is cell-major), so two sectors' coverage sets can be intersected with
// a linear merge. The wave scheduler's co-upgrade conflict graph is
// built from pairwise overlaps of these sets.
func (m *Model) CoverageGrids(dst []int, b int, marginDB float64) []int {
	floorDbm := units.MwToDbm(m.noiseMw) - marginDB
	sec := &m.Net.Sectors[b]
	for _, ref := range m.core.sectorEntries[b] {
		if sec.MaxPowerDbm+float64(m.core.contribBaseDB[ref.Pos]) >= floorDbm {
			dst = append(dst, int(ref.Grid))
		}
	}
	return dst
}

// GridsIn returns the flat indices of all grid cells whose centers lie
// inside region, appended to dst.
func (m *Model) GridsIn(dst []int, region geo.Rect) []int {
	for g, center := range m.core.cellCenters {
		if region.Contains(center) {
			dst = append(dst, g)
		}
	}
	return dst
}

// CellCenter returns the precomputed center point of grid cell g.
func (m *Model) CellCenter(g int) geo.Point { return m.core.cellCenters[g] }

// rateFromSinr converts a linear SINR to the achievable max rate.
func (m *Model) rateFromSinr(sinrLin float64) float64 {
	if sinrLin <= 0 {
		return 0
	}
	return m.Link.MaxRateBpsLinear(sinrLin)
}

// rateBounds additionally reports the linear-SINR interval [lo, hi)
// over which the mapper returns the same quantized rate. Mappers that
// cannot (rate curves without a bounds method) get a degenerate empty
// interval, which disables SpeculateBatch's same-bucket fast path but
// changes no result. sinrLin must be > 0.
func (m *Model) rateBounds(sinrLin float64) (rate, lo, hi float64) {
	type boundsMapper interface {
		MaxRateBpsLinearBounds(sinrLin float64) (rate, lo, hi float64)
	}
	if bm, ok := m.Link.(boundsMapper); ok {
		return bm.MaxRateBpsLinearBounds(sinrLin)
	}
	return m.Link.MaxRateBpsLinear(sinrLin), 0, 0
}
