// Operational-data ingestion: an Engine normally synthesizes its link
// budgets from the analytic antenna model, but a real deployment plans
// from exported operational data — per-tilt path-loss matrices, current
// power/tilt settings, measured user densities — which arrives with
// gaps and garbage. ExportDataset serializes the engine's view into
// that exchange form; UseDataset runs the sanitizer over a dataset and
// installs the (possibly repaired) result, quarantining sectors whose
// data cannot be trusted so the planner never tunes them.

package core

import (
	"fmt"
	"math"

	"magus/internal/antenna"
	"magus/internal/config"
	"magus/internal/netmodel"
	"magus/internal/sanitize"
)

// ExportDataset snapshots the engine's radio data in the operational
// exchange form: one per-tilt link-budget matrix per sector (tabulated
// at every discrete tilt setting), the current configuration with its
// hardware bounds, the geometric neighbor lists, and the UE density
// grid. A clean export fed back through UseDataset plans bit-identically.
func (e *Engine) ExportDataset() *sanitize.Dataset {
	ds := &sanitize.Dataset{Sectors: make([]sanitize.SectorData, e.Net.NumSectors())}
	for b := range e.Net.Sectors {
		sec := &e.Net.Sectors[b]
		settings := tiltSettings(sec.Tilts)
		ds.Sectors[b] = sanitize.SectorData{
			ID:           b,
			PowerDbm:     e.Before.Cfg.PowerDbm(b),
			MinPowerDbm:  sec.MinPowerDbm,
			MaxPowerDbm:  sec.MaxPowerDbm,
			TiltDeg:      e.Before.Cfg.TiltDeg(b),
			TiltSettings: settings,
			Cells:        e.Model.SectorCells(b),
			LinkDB:       e.Model.SampleLinkDB(b, settings),
			Neighbors:    e.Net.NeighborSectors([]int{b}, e.NeighborRadius()),
		}
	}
	n := e.Model.Grid.NumCells()
	ds.UE = make([]float64, n)
	for g := 0; g < n; g++ {
		ds.UE[g] = e.Model.UE(g)
	}
	return ds
}

// UseDataset sanitizes ds under policy and installs the result onto the
// engine: tabulated link budgets replace the analytic model for every
// sector with usable matrices, the baseline configuration moves to the
// dataset's power/tilt settings (clamped to hardware), and the dataset's
// UE densities replace the synthetic distribution when they carry any
// load. Sectors the sanitizer quarantines keep their analytic budgets
// and are excluded from future plans' neighbor sets. The report is
// returned and also attached to every subsequent Plan.
//
// Under Strict the dataset must be defect-free: the report and a
// sanitize.ErrRejected error come back and the engine is untouched.
func (e *Engine) UseDataset(ds *sanitize.Dataset, policy sanitize.Policy) (*sanitize.Report, error) {
	for i := range ds.Sectors {
		if id := ds.Sectors[i].ID; id < 0 || id >= e.Net.NumSectors() {
			return nil, fmt.Errorf("core: dataset sector %d outside network of %d sectors", id, e.Net.NumSectors())
		}
	}
	rep, err := sanitize.Run(ds, policy)
	if err != nil {
		return rep, err
	}

	quarantined := make(map[int]bool, len(rep.Quarantined))
	for _, b := range rep.Quarantined {
		quarantined[b] = true
	}

	// Install tables first, then refresh the affected sectors on an
	// incremental copy of the baseline: entries whose budgets are
	// unchanged (a clean roundtrip) are no-ops, so the state's lineage —
	// and with it plan determinism — is preserved exactly.
	before := e.Before.Clone()
	for i := range ds.Sectors {
		sec := &ds.Sectors[i]
		if sec.Quarantined || len(sec.LinkDB) == 0 {
			continue
		}
		if err := e.Model.InstallLinkTable(sec.ID, sec.TiltSettings, sec.Cells, sec.LinkDB); err != nil {
			return rep, fmt.Errorf("core: install sector %d: %w", sec.ID, err)
		}
		before.RefreshSector(sec.ID)
	}

	// Move the configuration to the dataset's settings via incremental
	// deltas (zero deltas no-op, keeping clean roundtrips exact).
	for i := range ds.Sectors {
		sec := &ds.Sectors[i]
		if sec.Quarantined {
			continue
		}
		b := sec.ID
		topo := &e.Net.Sectors[b]
		power := clampF(sec.PowerDbm, topo.MinPowerDbm, topo.MaxPowerDbm)
		tiltIdx := nearestTiltIndex(topo.Tilts, sec.TiltDeg)
		ch := changeTo(before, b, power, tiltIdx)
		if !ch.IsZero() {
			if _, err := before.Apply(ch); err != nil {
				return rep, fmt.Errorf("core: apply sector %d: %w", b, err)
			}
		}
	}

	if len(ds.UE) == e.Model.Grid.NumCells() && totalOf(ds.UE) > 0 {
		if err := e.Model.SetUsers(ds.UE); err != nil {
			return rep, fmt.Errorf("core: %w", err)
		}
		before.RecomputeLoads()
	}

	e.Before = freshBefore(before)
	e.sanitation = rep
	e.quarantined = quarantined
	return rep, nil
}

// Sanitation returns the report of the last UseDataset call, or nil when
// the engine still runs on purely synthetic data.
func (e *Engine) Sanitation() *sanitize.Report { return e.sanitation }

// QuarantinedSectors reports the sectors excluded from tuning by the
// last UseDataset call, ascending.
func (e *Engine) QuarantinedSectors() []int {
	if e.sanitation == nil {
		return nil
	}
	return e.sanitation.Quarantined
}

// tiltSettings enumerates a tilt table's discrete settings in ascending
// degrees.
func tiltSettings(tt antenna.TiltTable) []float64 {
	out := make([]float64, 0, tt.NumSettings())
	for idx := tt.MinIndex(); idx <= tt.MaxIndex(); idx++ {
		out = append(out, tt.Degrees(idx))
	}
	return out
}

// nearestTiltIndex maps a tilt angle in degrees onto the closest
// discrete index of the table.
func nearestTiltIndex(tt antenna.TiltTable, deg float64) int {
	if tt.StepDeg <= 0 {
		return 0
	}
	idx := int(math.Round((deg - tt.NeutralDeg) / tt.StepDeg))
	if idx > tt.MaxIndex() {
		idx = tt.MaxIndex()
	}
	if idx < tt.MinIndex() {
		idx = tt.MinIndex()
	}
	return idx
}

// changeTo builds the incremental change that moves sector b of state s
// to the given absolute power and tilt index.
func changeTo(s *netmodel.State, b int, powerDbm float64, tiltIdx int) config.Change {
	return config.Change{
		Sector:     b,
		PowerDelta: powerDbm - s.Cfg.PowerDbm(b),
		TiltDelta:  tiltIdx - s.Cfg.TiltIndex(b),
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func totalOf(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}
