package experiments

import (
	"fmt"
	"strings"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// Table2 is the paper's Table 2: the recovery ratio cross-matrix when
// optimizing with one utility function and measuring under another, for
// a suburban area under scenario (a). Optimizing for performance
// recovers performance but little coverage; optimizing for coverage
// recovers coverage at a performance cost.
type Table2 struct {
	// Recovery[optimized][measured] with keys "performance"/"coverage".
	Recovery map[string]map[string]float64
}

// RunTable2 reproduces Table 2 on a suburban scenario-(a) upgrade.
func RunTable2(env *campaign.Env, seed int64) (*Table2, error) {
	engine, err := env.Build(seed, campaign.DefaultAreaSpec(topology.Suburban))
	if err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	objectives := []utility.Func{utility.Performance, utility.Coverage}
	out := &Table2{Recovery: make(map[string]map[string]float64)}
	for _, opt := range objectives {
		plan, err := engine.Mitigate(upgrade.SingleSector, core.Joint, opt)
		if err != nil {
			return nil, fmt.Errorf("table2 optimize %s: %w", opt.Name, err)
		}
		out.Recovery[opt.Name] = make(map[string]float64)
		for _, measured := range objectives {
			before := engine.Before.Utility(measured)
			upgradeU := plan.Upgrade.Utility(measured)
			after := plan.After.Utility(measured)
			out.Recovery[opt.Name][measured.Name] =
				utility.RecoveryRatio(before, upgradeU, after)
		}
	}
	return out, nil
}

// String prints the 2x2 matrix in the paper's layout.
func (t *Table2) String() string {
	var b strings.Builder
	b.WriteString("Table 2: recovery ratio by optimization utility vs measured utility\n")
	fmt.Fprintf(&b, "%-22s %14s %14s\n", "Optimization \\ Measured", "u_performance", "u_coverage")
	for _, opt := range []string{"performance", "coverage"} {
		fmt.Fprintf(&b, "u_%-20s %13.1f%% %13.1f%%\n",
			opt, 100*t.Recovery[opt]["performance"], 100*t.Recovery[opt]["coverage"])
	}
	return b.String()
}
