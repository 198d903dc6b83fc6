package netmodel

import (
	"testing"

	"magus/internal/config"
	"magus/internal/geo"
	"magus/internal/propagation"
	"magus/internal/topology"
	"magus/internal/utility"
)

var (
	kpiSink   float64
	cloneSink *State
)

// benchMarket builds a 12 km suburban market — 156 sectors over 3600
// grids at 200 m, the scale of the daemon's default market — and its
// default-configuration state with users assigned.
func benchMarket(b *testing.B) (*Model, *State) {
	b.Helper()
	net := topology.MustGenerate(topology.GenConfig{
		Seed:   1,
		Class:  topology.Suburban,
		Bounds: geo.NewRectCentered(geo.Point{}, 12000, 12000),
	})
	m := MustNewModel(net, propagation.MustNewSPM(2.635e9, nil), net.Bounds, Params{CellSizeM: 200})
	live := m.NewState(config.New(net))
	live.AssignUsersUniform()
	return m, live
}

// BenchmarkStateClone prices one State.Clone on the benchmark market:
// the per-grid arrays, the received powers and one header per sector's
// shared link row.
func BenchmarkStateClone(b *testing.B) {
	_, s := benchMarket(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = s.Clone()
	}
}

// BenchmarkKPIUtility prices one window tick's KPI read on the benchmark
// market: a uniform load swing, then KPIUtility on both the live state
// and the C_after floor reference (one sector off-air, two neighbours
// re-powered).
func BenchmarkKPIUtility(b *testing.B) {
	m, live := benchMarket(b)
	afterCfg := live.Cfg.Clone()
	for _, ch := range []config.Change{
		{Sector: 0, TurnOff: true},
		{Sector: 1, PowerDelta: 2},
		{Sector: 2, PowerDelta: 2},
	} {
		if _, err := afterCfg.Apply(ch); err != nil {
			b.Fatal(err)
		}
	}
	after := live.Derive(m, afterCfg)
	live.EnableKPIAggregates(utility.Performance, 1)
	after.EnableKPIAggregates(utility.Performance, 1)
	swing := [2]float64{1.01, 1 / 1.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScaleUsers(swing[i&1])
		kpiSink = live.KPIUtility() + after.KPIUtility()
	}
}
