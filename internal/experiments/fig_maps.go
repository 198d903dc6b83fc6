package experiments

import (
	"fmt"
	"math"
	"strings"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/geo"
	"magus/internal/render"
	"magus/internal/topology"
)

// Maps reproduces the paper's qualitative map figures:
//
//   - Figure 3: the path-loss raster of a single directional sector
//     (brighter = lower loss), with its min/max range;
//   - Figures 4/5: the service coverage map of a region, with black
//     cells marking coverage holes;
//   - Figure 7: the same sector's path loss before tuning, after a
//     power increase, and after an uptilt, side by side.
type Maps struct {
	// PathLossASCII is the Figure 3 rendering.
	PathLossASCII string
	// PathLossMinDB/MaxDB bound the raster (the paper's spans roughly
	// -20 near the sector to -200 at the 30 km boundary).
	PathLossMinDB float64
	PathLossMaxDB float64
	// CoverageASCII is the Figure 4 rendering; ServedFraction the share
	// of cells in service.
	CoverageASCII  string
	ServedFraction float64
	// TuningComparison is the Figure 7 three-panel rendering.
	TuningComparison string
	// Engine gives callers access to the underlying model (e.g. to
	// write PGM/PPM files).
	Engine *core.Engine
}

// RunMaps builds a terrain-corrected suburban area and renders the maps.
func RunMaps(env *campaign.Env, seed int64) (*Maps, error) {
	return RunMapsSized(env, seed, 9000, 150)
}

// RunMapsSized is RunMaps with an explicit region span and cell size, so
// tests can render a miniature market in milliseconds. The terrain
// market is built outside env's engine cache (its spec is not an
// AreaSpec) but draws on env's model snapshots and search workers.
func RunMapsSized(env *campaign.Env, seed int64, spanM, cellM float64) (*Maps, error) {
	engine, err := core.NewEngine(core.SetupConfig{
		Seed:          seed,
		Class:         topology.Suburban,
		RegionSpanM:   spanM,
		CellSizeM:     cellM,
		WithTerrain:   true,
		EqualizeSteps: 0, // maps illustrate raw planning defaults
		SearchWorkers: env.SearchWorkers,
		ModelCache:    env.Snapshots,
	})
	if err != nil {
		return nil, fmt.Errorf("maps: %w", err)
	}
	out := &Maps{Engine: engine}

	// Figure 3: path-loss raster of the central site's first sector.
	central := engine.Net.CentralSite()
	sec := &engine.Net.Sectors[engine.Net.Sites[central].Sectors[0]]
	grid := engine.Model.Grid
	neutral := sec.Tilts.NeutralDeg
	mx := engine.SPM.ComputeMatrix(sec, neutral, grid)
	out.PathLossMinDB, out.PathLossMaxDB, _ = mx.Stats()
	ascii, err := render.Heatmap(grid, mx.LossDB, 70)
	if err != nil {
		return nil, err
	}
	out.PathLossASCII = ascii

	// Figures 4/5: coverage map of the whole region.
	serving := make([]int, grid.NumCells())
	served := 0
	for g := range serving {
		serving[g] = -1
		if engine.Before.MaxRateBps(g) > 0 {
			serving[g] = engine.Before.ServingSector(g)
			served++
		}
	}
	cov, err := render.CoverageASCII(grid, serving, 70)
	if err != nil {
		return nil, err
	}
	out.CoverageASCII = cov
	out.ServedFraction = float64(served) / float64(grid.NumCells())

	// Figure 7: before vs +6 dB power vs 4-degree uptilt, rendered over
	// a window in front of the sector. Received power changes with the
	// tuning, so render RP = base power + loss.
	window := geo.NewRectCentered(sec.Pos, 4000, 4000)
	sub := geo.MustNewGrid(window, 100)
	rp := func(powerBoost, tiltDeg float64) []float64 {
		v := make([]float64, sub.NumCells())
		for i := range v {
			p := sub.CellCenterIdx(i)
			v[i] = sec.DefaultPowerDbm + powerBoost + engine.SPM.SectorPathLossDB(sec, tiltDeg, p)
		}
		return v
	}
	before := rp(0, neutral)
	power := rp(6, neutral)
	uptilt := rp(0, math.Max(neutral-4, 0))
	panels := make([]string, 3)
	for i, v := range [][]float64{before, power, uptilt} {
		p, err := render.Heatmap(sub, v, 26)
		if err != nil {
			return nil, err
		}
		panels[i] = p
	}
	out.TuningComparison = "   (a) before          (b) +6 dB power       (c) 4 deg uptilt\n" +
		render.SideBySide("  ", panels...)
	return out, nil
}

// String prints all three figures.
func (m *Maps) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: sector path-loss raster (range %.0f..%.0f dB)\n%s\n",
		m.PathLossMinDB, m.PathLossMaxDB, m.PathLossASCII)
	fmt.Fprintf(&b, "Figure 4/5: service coverage map (%.1f%% of cells served, '#' = hole)\n%s\n",
		100*m.ServedFraction, m.CoverageASCII)
	fmt.Fprintf(&b, "Figure 7: effect of power and tilt changes on received power\n%s",
		m.TuningComparison)
	return b.String()
}
