package experiments

import (
	"fmt"
	"strings"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/geo"
	"magus/internal/render"
	"magus/internal/topology"
)

// Figure8Row summarizes one area class's radio environment: the sector
// density statistic the paper reports alongside its Figure 8 coverage
// maps (26 rural / 55 suburban / 178 urban interfering sectors).
type Figure8Row struct {
	Class topology.AreaClass
	// Sites and Sectors count the generated topology.
	Sites   int
	Sectors int
	// InterferingSectors counts sectors whose signal reaches the tuning
	// area above the noise floor minus 12 dB.
	InterferingSectors int
	// CoverageMap is the ASCII serving map of the tuning area (Figure 8).
	CoverageMap string
	// ServedFraction is the fraction of tuning-area grids in service.
	ServedFraction float64
}

// Figure8 is the per-class comparison.
type Figure8 struct {
	Rows []Figure8Row
}

// RunFigure8 generates one area per class and measures density and
// coverage.
func RunFigure8(env *campaign.Env, seed int64) (*Figure8, error) {
	out := &Figure8{}
	for _, class := range AllClasses {
		engine, err := env.Build(seed, campaign.DefaultAreaSpec(class))
		if err != nil {
			return nil, fmt.Errorf("figure8 %v: %w", class, err)
		}
		area := engine.TuningArea()
		row := Figure8Row{
			Class:              class,
			Sites:              len(engine.Net.Sites),
			Sectors:            engine.Net.NumSectors(),
			InterferingSectors: engine.Model.InterferingSectorCount(area, 12),
		}
		subgrid, serving, served := tuningAreaServingMap(engine, area)
		if n := subgrid.NumCells(); n > 0 {
			row.ServedFraction = float64(served) / float64(n)
		}
		ascii, err := render.CoverageASCII(subgrid, serving, 60)
		if err != nil {
			return nil, err
		}
		row.CoverageMap = ascii
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// tuningAreaServingMap builds a standalone grid over area and fills it
// with the serving sector of the engine's baseline state (-1 for out of
// service), returning the grid, the per-cell serving IDs and the served
// cell count.
func tuningAreaServingMap(engine *core.Engine, area geo.Rect) (*geo.Grid, []int, int) {
	sub := geo.MustNewGrid(area, engine.Model.Grid.CellSize)
	serving := make([]int, sub.NumCells())
	served := 0
	for i := range serving {
		serving[i] = -1
		g := engine.Model.Grid.IndexAt(sub.CellCenterIdx(i))
		if g < 0 {
			continue
		}
		if engine.Before.MaxRateBps(g) > 0 {
			serving[i] = engine.Before.ServingSector(g)
			served++
		}
	}
	return sub, serving, served
}

// String prints the density table and maps.
func (f *Figure8) String() string {
	var b strings.Builder
	b.WriteString("Figure 8: coverage maps and sector density by area class\n")
	fmt.Fprintf(&b, "%-10s %6s %8s %12s %10s\n", "class", "sites", "sectors", "interferers", "served")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s %6d %8d %12d %9.1f%%\n",
			r.Class, r.Sites, r.Sectors, r.InterferingSectors, 100*r.ServedFraction)
	}
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "\n%s coverage map ('#' = out of service):\n%s", r.Class, r.CoverageMap)
	}
	return b.String()
}
