package experiments

import (
	"fmt"
	"strings"

	"magus/internal/campaign"
	"magus/internal/config"
	"magus/internal/topology"
	"magus/internal/upgrade"
)

// Figure10 reproduces the paper's rural-limit illustration: after the
// central rural sector goes down, even a +10 dB power increase on the
// closest neighboring sector cannot recover the lost coverage, because
// rural links are noise-limited and the neighbor is too far away.
type Figure10 struct {
	// ServedBefore is the number of tuning-area grids in service with
	// the target on-air; ServedUpgrade after it goes down; ServedBoosted
	// after the +10 dB neighbor boost.
	ServedBefore  int
	ServedUpgrade int
	ServedBoosted int
	// BoostHitsPowerCap reports whether +10 dB exceeded the neighbor's
	// hardware limit (the paper: "such increment probably already
	// exceeds the maximum transmission power of that sector").
	BoostHitsPowerCap bool
	// RecoveredFraction is the share of coverage lost in the upgrade
	// that the boost restored.
	RecoveredFraction float64
}

// RunFigure10 runs the rural coverage-limit demonstration.
func RunFigure10(env *campaign.Env, seed int64) (*Figure10, error) {
	engine, err := env.Build(seed, campaign.DefaultAreaSpec(topology.Rural))
	if err != nil {
		return nil, fmt.Errorf("figure10: %w", err)
	}
	area := engine.TuningArea()
	targets, err := upgrade.Targets(engine.Net, upgrade.SingleSector, area)
	if err != nil {
		return nil, err
	}
	target := targets[0]

	grids := engine.Model.GridsIn(nil, area)
	countServed := func(st interface{ MaxRateBps(int) float64 }) int {
		n := 0
		for _, g := range grids {
			if st.MaxRateBps(g) > 0 {
				n++
			}
		}
		return n
	}

	out := &Figure10{ServedBefore: countServed(engine.Before)}

	st := engine.Before.Clone()
	if _, err := st.Apply(config.Change{Sector: target, TurnOff: true}); err != nil {
		return nil, err
	}
	out.ServedUpgrade = countServed(st)

	// Boost the closest on-air neighbor by 10 dB (clamped by hardware).
	neighbors := engine.Net.NeighborSectors([]int{target}, engine.NeighborRadius())
	best, bestD := -1, 0.0
	for _, b := range neighbors {
		d := engine.Net.Sectors[b].Pos.DistanceTo(engine.Net.Sectors[target].Pos)
		if best < 0 || d < bestD {
			best, bestD = b, d
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("figure10: no neighbor found")
	}
	applied, err := st.Apply(config.Change{Sector: best, PowerDelta: 10})
	if err != nil {
		return nil, err
	}
	out.BoostHitsPowerCap = applied.PowerDelta < 10
	out.ServedBoosted = countServed(st)

	lost := out.ServedBefore - out.ServedUpgrade
	if lost > 0 {
		out.RecoveredFraction = float64(out.ServedBoosted-out.ServedUpgrade) / float64(lost)
	} else {
		out.RecoveredFraction = 1
	}
	return out, nil
}

// String prints the three coverage counts.
func (f *Figure10) String() string {
	var b strings.Builder
	b.WriteString("Figure 10: rural coverage cannot be recovered by a +10 dB neighbor boost\n")
	fmt.Fprintf(&b, "  served grids before upgrade:    %d\n", f.ServedBefore)
	fmt.Fprintf(&b, "  served grids during upgrade:    %d\n", f.ServedUpgrade)
	fmt.Fprintf(&b, "  served grids after +10dB boost: %d\n", f.ServedBoosted)
	fmt.Fprintf(&b, "  coverage recovered:             %.1f%%\n", 100*f.RecoveredFraction)
	fmt.Fprintf(&b, "  boost clamped by hardware cap:  %v\n", f.BoostHitsPowerCap)
	return b.String()
}
