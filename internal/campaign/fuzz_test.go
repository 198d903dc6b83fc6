package campaign

import (
	"context"
	"encoding/json"
	"testing"

	"magus/internal/core"
	"magus/internal/executor"
	"magus/internal/migrate"
	"magus/internal/runbook"
	"magus/internal/simwindow"
	"magus/internal/topology"
	"magus/internal/upgrade"
)

// FuzzJobSpec decodes arbitrary JSON into a JobSpec the way journal
// recovery does and validates it. A spec Validate accepts must build:
// a simulate or execute spec becomes its run configuration and drives a
// live session a few ticks on a miniature market, and nothing may
// panic. The session may still refuse a fault the market cannot host (a
// sector out of range, a push fault in a session); that is an error,
// not a crash.
func FuzzJobSpec(f *testing.F) {
	engine, err := core.NewEngine(testSetup(topology.Suburban, 1))
	if err != nil {
		f.Fatal(err)
	}
	plan, err := engine.MitigatePlan(core.MitigateRequest{Scenario: upgrade.SingleSector, Method: core.PowerOnly})
	if err != nil {
		f.Fatal(err)
	}
	mig, err := plan.GradualMigration(migrate.Options{})
	if err != nil {
		f.Fatal(err)
	}
	rb, err := runbook.Build(plan, mig)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"Class":1,"Kind":"simulate","Sim":{"diurnal":true,"start_hour":-3}}`,
		`{"Class":1,"Kind":"execute","Exec":{"diurnal":true,"start_hour":-3}}`,
		`{"Class":1,"Kind":"simulate","Sim":{"diurnal":true,"start_hour":23.9,"load_noise":0.02,"faults":"surge@1+2:3:x1.5,sector-down@2:4"}}`,
		`{"Class":1,"Kind":"simulate","Sim":{"load_noise":-1}}`,
		`{"Class":1,"Kind":"simulate","Sim":{"load_noise":1e300,"faults":"surge@0+1:3:xNaN,surge@1+0:5:xInf"}}`,
		`{"Class":1,"Kind":"simulate","Sim":{"ticks":-1}}`,
		`{"Class":1,"Kind":"simulate","Sim":{"faults":"push-fail@1"}}`,
		`{"Class":2,"Kind":"execute","Exec":{"chaos":"push-error@1x2,kpi-loss@1,sector-down@1:2","diurnal":true,"start_hour":1e300}}`,
		`{"Class":0,"Kind":"execute","Exec":{"chaos":"push-error@0"}}`,
		`{"Class":1,"Kind":"execute","Exec":{"chaos":"push-fail@2,push-delay@1+5"}}`,
		`{"Class":1,"Kind":"execute","Exec":{"retries":-1}}`,
		`{"Class":1,"Kind":"wave","Wave":{"overlap_threshold":2}}`,
		`{"Class":1,"Kind":"wave","Wave":{"sectors":[1,1]}}`,
		`{"Class":1,"Sim":{"seed":1}}`,
		`{"Class":1,"Kind":"dream"}`,
		`{"Class":7}`,
		`{"Class":1,"Timeout":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp JobSpec
		if json.Unmarshal(data, &sp) != nil || sp.Validate() != nil {
			return
		}
		switch sp.Kind {
		case KindSimulate:
			cfg, err := sp.Sim.window(context.Background(), 1)
			if err != nil {
				t.Fatalf("validated sim spec does not build: %v", err)
			}
			sess, err := simwindow.NewSession(engine.Before, rb, cfg)
			if err != nil {
				return
			}
			for i := 0; i < 3; i++ {
				sess.Advance()
			}
		case KindExecute:
			net, opts, err := sp.Exec.Network(engine.Before, rb)
			if err != nil {
				return
			}
			if _, err := executor.New(net, rb, opts); err != nil {
				t.Fatalf("validated exec spec builds no executor: %v", err)
			}
			for i := 0; i < 3; i++ {
				_, _ = net.Observe(1)
			}
		}
	})
}
