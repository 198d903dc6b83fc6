// Command magus-maps renders the model's spatial fields as images and
// terminal art: the per-sector path-loss raster (the paper's Figure 3),
// the service coverage map (Figures 4/5), and the power/tilt tuning
// comparison (Figure 7).
//
// Usage:
//
//	magus-maps [-seed 1] [-out DIR]
//
// ASCII maps go to stdout; with -out, PGM (path loss) and PPM (coverage)
// images are written into DIR.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"magus/internal/campaign"
	"magus/internal/experiments"
	"magus/internal/export"
	"magus/internal/render"
)

func main() {
	seed := flag.Int64("seed", 1, "market seed")
	out := flag.String("out", "", "directory for PGM/PPM image output (optional)")
	geojson := flag.Bool("geojson", false, "also write topology.geojson and coverage.geojson into -out")
	modelCacheDir := flag.String("model-cache", "", "directory for on-disk model snapshots; repeat invocations over the same market skip the model build")
	flag.Parse()
	env, err := campaign.NewEnv(nil, *modelCacheDir, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "magus-maps:", err)
		os.Exit(2)
	}

	maps, err := experiments.RunMaps(env, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "magus-maps:", err)
		os.Exit(1)
	}
	fmt.Println(maps)

	if *out == "" {
		return
	}
	written, err := writeArtifacts(maps, *out, *geojson)
	if err != nil {
		fmt.Fprintln(os.Stderr, "magus-maps:", err)
		os.Exit(1)
	}
	for _, path := range written {
		fmt.Println("wrote", path)
	}
}

// writeArtifacts renders the map images (and optionally the GeoJSON
// exports) into dir, creating it if needed, and returns the paths
// written in order.
func writeArtifacts(maps *experiments.Maps, dir string, geojson bool) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	engine := maps.Engine
	grid := engine.Model.Grid
	var written []string
	emit := func(name string, write func(*os.File) error) error {
		path := filepath.Join(dir, name)
		if err := writeFile(path, write); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	// Path-loss raster of the central site's first sector (Figure 3).
	central := engine.Net.CentralSite()
	sec := &engine.Net.Sectors[engine.Net.Sites[central].Sectors[0]]
	mx := engine.SPM.ComputeMatrix(sec, sec.Tilts.NeutralDeg, grid)
	if err := emit("pathloss.pgm", func(f *os.File) error {
		return render.WritePGM(f, grid, mx.LossDB)
	}); err != nil {
		return nil, err
	}

	// Coverage map (Figure 4).
	serving := make([]int, grid.NumCells())
	for g := range serving {
		serving[g] = -1
		if engine.Before.MaxRateBps(g) > 0 {
			serving[g] = engine.Before.ServingSector(g)
		}
	}
	if err := emit("coverage.ppm", func(f *os.File) error {
		return render.WritePPM(f, grid, serving)
	}); err != nil {
		return nil, err
	}

	if geojson {
		anchor := export.Anchor{LatDeg: 40.7, LonDeg: -74.0}
		if err := emit("topology.geojson", func(f *os.File) error {
			return export.TopologyGeoJSON(f, engine.Net, anchor)
		}); err != nil {
			return nil, err
		}
		if err := emit("coverage.geojson", func(f *os.File) error {
			return export.CoverageGeoJSON(f, engine.Before, anchor, 2)
		}); err != nil {
			return nil, err
		}
	}
	return written, nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
