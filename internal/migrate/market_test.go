package migrate_test

import (
	"fmt"
	"testing"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/migrate"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// testEnv builds the evaluation markets.
var testEnv = &campaign.Env{Engines: campaign.NewEngineCache(0)}

// TestMarketMigrationsMatchCloneOracle pins Gradual and OneShot to the
// clone-per-step reference on the evaluation markets: default-spec
// suburban and urban seed 1, every scenario and tuning method, plus
// MaxSteps 1-3 on the suburban plans.
func TestMarketMigrationsMatchCloneOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two evaluation markets")
	}
	for _, class := range []topology.AreaClass{topology.Suburban, topology.Urban} {
		eng, err := testEnv.Build(1, campaign.DefaultAreaSpec(class))
		if err != nil {
			t.Fatal(err)
		}
		opts := []migrate.Options{{}}
		if class == topology.Suburban {
			opts = append(opts, migrate.Options{MaxSteps: 1}, migrate.Options{MaxSteps: 2}, migrate.Options{MaxSteps: 3})
		}
		for _, sc := range []upgrade.Scenario{upgrade.SingleSector, upgrade.FullSite, upgrade.FourCorners} {
			for _, method := range []core.Method{core.PowerOnly, core.TiltOnly, core.Joint} {
				plan, err := eng.Mitigate(sc, method, utility.Performance)
				if err != nil {
					t.Fatal(err)
				}
				for i := range opts {
					opts[i].Util = plan.Util
				}
				name := fmt.Sprintf("%v %s %v", class, sc.Short(), method)
				migrate.CheckAgainstOracle(t, name, eng.Before, plan.After, plan.Targets, opts...)
			}
		}
	}
}
