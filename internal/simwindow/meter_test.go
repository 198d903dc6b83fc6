package simwindow

import (
	"math"
	"testing"

	"magus/internal/config"
	"magus/internal/geo"
	"magus/internal/netmodel"
	"magus/internal/propagation"
	"magus/internal/topology"
)

// oneStep is a rate ladder with a single step at threshold: in service
// at 1 Mb/s from it up, out of service below it.
type oneStep struct{ threshold float64 }

func (l oneStep) RateLadder() (thresholds, rates []float64) {
	return []float64{l.threshold}, []float64{1e6}
}

// TestBelowFloorAtFirstThreshold pins the below-floor rule to the rate
// ladder's first threshold on both meter paths: a grid whose SINR is
// exactly the threshold is in service, and one ulp below it is not. A
// sector comes on air under a running meter; the probed grid's SINR
// after that Apply is read on an LTE model, and each ladder puts its
// one threshold at that SINR or one ulp above it. The grid starts below
// either threshold, so the incremental path flips its flag through the
// change log exactly when the grid comes into service.
func TestBelowFloorAtFirstThreshold(t *testing.T) {
	net := topology.MustGenerate(topology.GenConfig{
		Seed: 3, Class: topology.Suburban, Bounds: geo.NewRectCentered(geo.Point{}, 6000, 6000),
	})
	spm := propagation.MustNewSPM(2.635e9, nil)
	params := netmodel.Params{CellSizeM: 200}
	probe := netmodel.MustNewModel(net, spm, net.Bounds, params)
	probe.NewState(config.New(net)).AssignUsersUniform()

	const sector = 4
	offCfg := config.New(net)
	if _, err := offCfg.Apply(config.Change{Sector: sector, TurnOff: true}); err != nil {
		t.Fatal(err)
	}
	off := probe.NewState(offCfg.Clone())
	on := off.Clone()
	on.MustApply(config.Change{Sector: sector, TurnOn: true})
	g := -1
	for c := 0; c < probe.Grid.NumCells() && g < 0; c++ {
		if on.ServingSector(c) == sector && probe.UE(c) > 0 && off.SINR(c) < on.SINR(c) {
			g = c
		}
	}
	if g < 0 {
		t.Fatalf("sector %d serves no grid with users", sector)
	}
	sinr := on.SINR(g)

	for _, tc := range []struct {
		name      string
		threshold float64
		inService bool
	}{
		{"exactly the threshold", sinr, true},
		{"one ulp below the threshold", math.Nextafter(sinr, math.Inf(1)), false},
	} {
		params.Link = oneStep{tc.threshold}
		m := netmodel.MustNewModel(net, spm, net.Bounds, params)
		if err := m.CopyUsersFrom(probe); err != nil {
			t.Fatal(err)
		}
		var below [2]float64
		for i, full := range []bool{false, true} {
			live := m.NewState(offCfg.Clone())
			mt := newMeter(m, live, m.NewState(config.New(net)), &Config{Workers: 1}, full)
			mt.measureChanges()
			live.MustApply(config.Change{Sector: sector, TurnOn: true})
			if math.Float64bits(live.SINR(g)) != math.Float64bits(sinr) {
				t.Fatalf("%s: grid %d SINR %v, probe %v", tc.name, g, live.SINR(g), sinr)
			}
			if got := mt.outOfService(g, m.UE(g)); got == tc.inService {
				t.Fatalf("%s (full=%v): grid %d out of service = %v", tc.name, full, g, got)
			}
			if !full && !mt.belowFlag[g] {
				t.Fatalf("%s: grid %d in service before the Apply", tc.name, g)
			}
			_, below[i] = mt.measureChanges()
			if !full && mt.belowFlag[g] == tc.inService {
				t.Fatalf("%s: grid %d below-floor flag %v after the Apply", tc.name, g, mt.belowFlag[g])
			}
		}
		if math.Abs(below[0]-below[1]) > 1e-9*below[1] {
			t.Fatalf("%s: below-floor weight %v incremental, %v full scan", tc.name, below[0], below[1])
		}
	}
}
