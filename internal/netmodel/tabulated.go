// Tabulated per-tilt link budgets: the in-memory analogue of the
// paper's Atoll path-loss matrices, which exist per discrete tilt
// setting rather than as an analytic antenna pattern. A sector with an
// installed table answers entryLinkDB from the table — exact at the
// tabulated settings, linearly interpolated in tilt between them —
// while sectors without one keep the analytic pattern path untouched.
// This is what lets operational (possibly repaired) matrix data replace
// the synthetic link budget sector by sector.

package netmodel

import (
	"fmt"
	"sort"
)

// SectorCells returns the grid-cell indices covered by sector b's
// contributor entries, in entry order — the row layout SampleLinkDB
// and InstallLinkTable share.
func (m *Model) SectorCells(b int) []int {
	refs := m.core.sectorEntries[b]
	cells := make([]int, len(refs))
	for i, ref := range refs {
		cells[i] = int(ref.Grid)
	}
	return cells
}

// SampleLinkDB tabulates sector b's link budget over SectorCells(b) at
// each tilt setting, from whatever source currently answers entryLinkDB
// (analytic pattern or an installed table). Row t corresponds to
// settings[t].
func (m *Model) SampleLinkDB(b int, settings []float64) [][]float64 {
	refs := m.core.sectorEntries[b]
	rows := make([][]float64, len(settings))
	for t, tilt := range settings {
		row := make([]float64, len(refs))
		for i, ref := range refs {
			row[i] = m.entryLinkDB(int(ref.Pos), tilt)
		}
		rows[t] = row
	}
	return rows
}

// InstallLinkTable replaces sector b's analytic link budget with a
// tabulated per-tilt table: linkDB holds one row per tilt setting
// (ascending degrees) over cells (grid indices, as from SectorCells).
// Cells the sector's contributor entries do not cover are ignored;
// entries absent from cells keep the analytic path. States built before
// the install keep their link rows — build (or refresh) states
// afterwards.
//
// The per-tilt row cache follows the tables. The first install on a
// model allocates its tables afresh, so it also gets a fresh row cache:
// ForkUsers forks taken before it keep the analytic tables and the rows
// built from them. A later install writes into tables shared with the
// forks taken since, so it drops sector b's rows from the cache those
// same forks share.
func (m *Model) InstallLinkTable(b int, settings []float64, cells []int, linkDB [][]float64) error {
	if b < 0 || b >= len(m.core.sectorEntries) {
		return fmt.Errorf("netmodel: no sector %d", b)
	}
	if len(settings) == 0 {
		return fmt.Errorf("netmodel: sector %d: no tilt settings", b)
	}
	for i := 1; i < len(settings); i++ {
		if !(settings[i] > settings[i-1]) {
			return fmt.Errorf("netmodel: sector %d: tilt settings not ascending", b)
		}
	}
	if len(linkDB) != len(settings) {
		return fmt.Errorf("netmodel: sector %d: %d matrix rows for %d tilt settings", b, len(linkDB), len(settings))
	}
	for t, row := range linkDB {
		if len(row) != len(cells) {
			return fmt.Errorf("netmodel: sector %d: row %d has %d cells, want %d", b, t, len(row), len(cells))
		}
	}

	// Column lookup: grid index -> position in the cells slice.
	col := make(map[int]int, len(cells))
	for i, g := range cells {
		col[g] = i
	}

	if m.entryCurve == nil {
		m.entryCurve = make([][]float64, len(m.core.contribSector))
		m.curveSettings = make([][]float64, len(m.core.sectorEntries))
		m.rows = newLinkRows(m.Net)
	} else {
		m.rows.clearSector(b)
	}
	m.curveSettings[b] = append([]float64(nil), settings...)
	for _, ref := range m.core.sectorEntries[b] {
		c, ok := col[int(ref.Grid)]
		if !ok {
			m.entryCurve[ref.Pos] = nil // stays analytic
			continue
		}
		curve := make([]float64, len(settings))
		for t := range settings {
			curve[t] = linkDB[t][c]
		}
		m.entryCurve[ref.Pos] = curve
	}
	return nil
}

// HasLinkTable reports whether sector b's link budget is tabulated.
func (m *Model) HasLinkTable(b int) bool {
	return m.curveSettings != nil && b >= 0 && b < len(m.curveSettings) && m.curveSettings[b] != nil
}

// SetUsers replaces the model's UE density grid (and resets any uniform
// ScaleUsers factor: the installed density IS the distribution). States
// over m must call RecomputeLoads (or be rebuilt) afterwards.
func (m *Model) SetUsers(ue []float64) error {
	if len(ue) != len(m.ue) {
		return fmt.Errorf("netmodel: density grid has %d cells, model has %d", len(ue), len(m.ue))
	}
	total := 0.0
	for _, v := range ue {
		total += v
	}
	copy(m.ue, ue)
	m.ueFactor = 1
	m.totalUE = total
	return nil
}

// interpCurve evaluates a tabulated tilt curve: exact at the tabulated
// settings (bit-identical to the stored value — determinism of
// sanitized-clean roundtrips depends on it), linear in tilt between
// them, clamped at the ends.
func interpCurve(settings, curve []float64, tilt float64) float64 {
	n := len(settings)
	if tilt <= settings[0] {
		return curve[0]
	}
	if tilt >= settings[n-1] {
		return curve[n-1]
	}
	i := sort.SearchFloat64s(settings, tilt)
	if settings[i] == tilt {
		return curve[i]
	}
	x0, x1 := settings[i-1], settings[i]
	frac := (tilt - x0) / (x1 - x0)
	return curve[i-1] + frac*(curve[i]-curve[i-1])
}
