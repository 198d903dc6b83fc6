package netmodel

import (
	"testing"

	"magus/internal/config"
	"magus/internal/geo"
	"magus/internal/propagation"
	"magus/internal/topology"
	"magus/internal/utility"
)

var kpiSink float64

// BenchmarkKPIUtility prices one window tick's KPI read: a uniform load
// swing, then KPIUtility on both the live state and the C_after floor
// reference (one sector off-air, two neighbours re-powered). The market
// is a 12 km suburban one — 156 sectors over 3600 grids at 200 m — the
// scale of the daemon's default market.
func BenchmarkKPIUtility(b *testing.B) {
	net := topology.MustGenerate(topology.GenConfig{
		Seed:   1,
		Class:  topology.Suburban,
		Bounds: geo.NewRectCentered(geo.Point{}, 12000, 12000),
	})
	m := MustNewModel(net, propagation.MustNewSPM(2.635e9, nil), net.Bounds, Params{CellSizeM: 200})
	live := m.NewState(config.New(net))
	live.AssignUsersUniform()
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
