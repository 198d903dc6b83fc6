package netmodel

import (
	"fmt"
	"math"
	"testing"

	"magus/internal/geo"
	"magus/internal/propagation"
	"magus/internal/terrain"
	"magus/internal/topology"
	"magus/internal/units"
)

// buildInputs returns inputs whose model exercises both the cutoff
// pruning (small radius relative to the region) and terrain-dependent
// elevation, so a parallel-build bug in either path shows up.
func buildInputs(t testing.TB) (*topology.Network, *propagation.SPM, geo.Rect, Params) {
	t.Helper()
	bounds := geo.NewRectCentered(geo.Point{}, 8000, 8000)
	net := topology.MustGenerate(topology.GenConfig{
		Seed:   7,
		Class:  topology.Suburban,
		Bounds: bounds,
	})
	terr := terrain.MustGenerate(terrain.Config{Seed: 7, Bounds: bounds, Resolution: 400})
	spm := propagation.MustNewSPM(2.635e9, terr)
	return net, spm, net.Bounds, Params{CellSizeM: 250, CutoffRadiusM: 2500}
}

// TestParallelBuildGolden asserts the tentpole invariant: every worker
// count produces contributor arrays bit-identical to the sequential
// build — same entries, same order, same float bits.
func TestParallelBuildGolden(t *testing.T) {
	net, spm, region, params := buildInputs(t)
	params.BuildWorkers = 1
	seq := MustNewModel(net, spm, region, params)
	if seq.NumContributors() == 0 {
		t.Fatal("sequential build produced no contributors")
	}

	for _, workers := range []int{2, 3, 5, 8, 64} {
		params.BuildWorkers = workers
		par := MustNewModel(net, spm, region, params)

		if len(par.core.contribSector) != len(seq.core.contribSector) {
			t.Fatalf("workers=%d: %d entries, want %d", workers,
				len(par.core.contribSector), len(seq.core.contribSector))
		}
		for i := range seq.core.contribSector {
			if par.core.contribSector[i] != seq.core.contribSector[i] {
				t.Fatalf("workers=%d: sector[%d] = %d, want %d", workers, i,
					par.core.contribSector[i], seq.core.contribSector[i])
			}
			if math.Float32bits(par.core.contribBaseDB[i]) != math.Float32bits(seq.core.contribBaseDB[i]) {
				t.Fatalf("workers=%d: baseDB[%d] bits differ: %v vs %v", workers, i,
					par.core.contribBaseDB[i], seq.core.contribBaseDB[i])
			}
			if math.Float32bits(par.core.contribElev[i]) != math.Float32bits(seq.core.contribElev[i]) {
				t.Fatalf("workers=%d: elev[%d] bits differ: %v vs %v", workers, i,
					par.core.contribElev[i], seq.core.contribElev[i])
			}
		}
		for g := range seq.core.gridStart {
			if par.core.gridStart[g] != seq.core.gridStart[g] {
				t.Fatalf("workers=%d: gridStart[%d] = %d, want %d", workers, g,
					par.core.gridStart[g], seq.core.gridStart[g])
			}
		}
		if len(par.core.sectorEntries) != len(seq.core.sectorEntries) {
			t.Fatalf("workers=%d: sectorEntries length differs", workers)
		}
		for b := range seq.core.sectorEntries {
			if len(par.core.sectorEntries[b]) != len(seq.core.sectorEntries[b]) {
				t.Fatalf("workers=%d: sector %d has %d entries, want %d", workers, b,
					len(par.core.sectorEntries[b]), len(seq.core.sectorEntries[b]))
			}
			for j, ref := range seq.core.sectorEntries[b] {
				if par.core.sectorEntries[b][j] != ref {
					t.Fatalf("workers=%d: sectorEntries[%d][%d] = %+v, want %+v",
						workers, b, j, par.core.sectorEntries[b][j], ref)
				}
			}
		}
	}
}

// TestParallelBuildApproxTilt repeats the golden check under the
// paper's flat-earth tilt approximation, the other elevation code path.
func TestParallelBuildApproxTilt(t *testing.T) {
	net, spm, region, params := buildInputs(t)
	params.ApproxTiltElevation = true
	params.BuildWorkers = 1
	seq := MustNewModel(net, spm, region, params)
	params.BuildWorkers = 4
	par := MustNewModel(net, spm, region, params)
	if len(par.core.contribSector) != len(seq.core.contribSector) {
		t.Fatalf("%d entries, want %d", len(par.core.contribSector), len(seq.core.contribSector))
	}
	for i := range seq.core.contribElev {
		if math.Float32bits(par.core.contribElev[i]) != math.Float32bits(seq.core.contribElev[i]) {
			t.Fatalf("elev[%d] bits differ: %v vs %v", i, par.core.contribElev[i], seq.core.contribElev[i])
		}
	}
}

// TestSiteSharedBuildMatchesPerSector pins the site-shared contributor
// build to the per-sector SectorBase loop (buildCellRangePerSector) on
// the evaluation markets: the three classes at their default spans and
// cell sizes, with and without terrain and the flat-earth tilt
// approximation. Sectors, base losses, elevations and per-cell counts
// must match bit for bit.
func TestSiteSharedBuildMatchesPerSector(t *testing.T) {
	markets := []struct {
		class        topology.AreaClass
		span, cellSz float64
	}{
		{topology.Rural, 24000, 300},
		{topology.Suburban, 10800, 200},
		{topology.Urban, 5400, 100},
	}
	seeds := []int64{1, 7, 1000, 1001}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, mk := range markets {
		for _, seed := range seeds {
			region := geo.NewRectCentered(geo.Point{}, mk.span, mk.span)
			net := topology.MustGenerate(topology.GenConfig{Seed: seed, Class: mk.class, Bounds: region})
			for _, withTerrain := range []bool{false, true} {
				var terr *terrain.Map
				if withTerrain {
					terr = terrain.MustGenerate(terrain.Config{
						Seed:         seed + 1,
						Bounds:       region.Expand(1000),
						UrbanCenters: []geo.Point{region.Center()},
					})
				}
				spm := propagation.MustNewSPM(2.635e9, terr)
				if terr != nil {
					spm.DiffractionWeight = 0
				}
				for _, approx := range []bool{false, true} {
					name := fmt.Sprintf("%v/seed%d/terrain=%v/approx=%v", mk.class, seed, withTerrain, approx)
					m := MustNewModel(net, spm, region, Params{CellSizeM: mk.cellSz, ApproxTiltElevation: approx})
					checkSiteSharedBuild(t, name, m)
				}
			}
		}
	}
}

// TestSiteSharedBuildMixedHeights: sectors that share a position but
// not a height must not share geometry. Generated sites give every
// sector one height, so the heights are varied here by hand.
func TestSiteSharedBuildMixedHeights(t *testing.T) {
	net, spm, region, params := buildInputs(t)
	mixed := *net
	mixed.Sectors = append([]topology.Sector(nil), net.Sectors...)
	for i := range mixed.Sectors {
		mixed.Sectors[i].HeightM += float64(i % 3)
	}
	checkSiteSharedBuild(t, "mixed heights", MustNewModel(&mixed, spm, region, params))
}

func checkSiteSharedBuild(t *testing.T, name string, m *Model) {
	t.Helper()
	floorDbm := units.MwToDbm(m.noiseMw) - m.params.FloorBelowNoiseDB
	idx := newSectorIndex(m.Net, m.Grid, m.params.CutoffRadiusM)
	centers := cellCenterTable(m.Grid)
	n := m.Grid.NumCells()
	got := m.buildCellRange(centers, idx, 0, n, floorDbm)
	want := m.buildCellRangePerSector(centers, idx, 0, n, floorDbm)
	if len(got.sector) == 0 || len(got.sector) != len(want.sector) {
		t.Fatalf("%s: %d entries, want %d (non-zero)", name, len(got.sector), len(want.sector))
	}
	for i := range want.sector {
		if got.sector[i] != want.sector[i] ||
			math.Float32bits(got.baseDB[i]) != math.Float32bits(want.baseDB[i]) ||
			math.Float32bits(got.elev[i]) != math.Float32bits(want.elev[i]) {
			t.Fatalf("%s: entry %d = (%d, %v, %v), want (%d, %v, %v)", name, i,
				got.sector[i], got.baseDB[i], got.elev[i], want.sector[i], want.baseDB[i], want.elev[i])
		}
	}
	for g := range want.counts {
		if got.counts[g] != want.counts[g] {
			t.Fatalf("%s: cell %d has %d entries, want %d", name, g, got.counts[g], want.counts[g])
		}
	}
	// The model's own (sharded) build went through the shared path too.
	for i, b := range m.core.contribSector {
		if b != want.sector[i] || math.Float32bits(m.core.contribBaseDB[i]) != math.Float32bits(want.baseDB[i]) ||
			math.Float32bits(m.core.contribElev[i]) != math.Float32bits(want.elev[i]) {
			t.Fatalf("%s: model entry %d differs from the per-sector build", name, i)
		}
	}
}

// TestSectorIndexCandidates cross-checks the spatial bucket index
// against a brute-force scan: for every cell center, the candidate list
// must include every sector within the cutoff radius, in ascending
// sector order.
func TestSectorIndexCandidates(t *testing.T) {
	net, spm, region, params := buildInputs(t)
	params.applyDefaults()
	grid, err := geo.NewGrid(region, params.CellSizeM)
	if err != nil {
		t.Fatal(err)
	}
	_ = spm
	idx := newSectorIndex(net, grid, params.CutoffRadiusM)

	for g := 0; g < grid.NumCells(); g++ {
		center := grid.CellCenterIdx(g)
		cand := idx.candidates(center)
		inCand := make(map[int32]bool, len(cand))
		prev := int32(-1)
		for _, b := range cand {
			if b <= prev {
				t.Fatalf("cell %d: candidates not strictly ascending at %d", g, b)
			}
			prev = b
			inCand[b] = true
		}
		for b := range net.Sectors {
			within := net.Sectors[b].Pos.DistanceTo(center) <= params.CutoffRadiusM
			if within && !inCand[int32(b)] {
				t.Fatalf("cell %d: sector %d within cutoff but not a candidate", g, b)
			}
		}
	}
}

// TestBuildWorkersOutOfRange checks degenerate worker counts behave:
// negative and huge values clamp rather than crash.
func TestBuildWorkersOutOfRange(t *testing.T) {
	net, spm, region, params := buildInputs(t)
	for _, w := range []int{-5, 0, 1000000} {
		params.BuildWorkers = w
		m := MustNewModel(net, spm, region, params)
		if m.NumContributors() == 0 {
			t.Fatalf("workers=%d produced empty model", w)
		}
	}
}
