package campaign

import (
	"context"
	"strings"
	"testing"
	"time"

	"magus/internal/core"
	"magus/internal/topology"
	"magus/internal/upgrade"
)

// TestCampaignExecuteJob runs a KindExecute job end to end: the worker
// plans the mitigation, builds the runbook and drives it through the
// guarded executor, surfacing the run's Status on the job result.
func TestCampaignExecuteJob(t *testing.T) {
	cache := NewEngineCache(8)
	o, err := New(Config{Build: testBuild(cache), Cache: cache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	specs := []JobSpec{
		{
			Class: topology.Suburban, Seed: 1, Scenario: upgrade.SingleSector,
			Method: core.PowerOnly, Kind: KindExecute,
		},
		{
			Class: topology.Suburban, Seed: 1, Scenario: upgrade.SingleSector,
			Method: core.PowerOnly, Kind: KindExecute,
			Exec: &ExecSpec{
				Chaos:          "push-error@1x1",
				Retries:        3,
				RetryBackoffMS: 1,
			},
		},
		{
			Class: topology.Suburban, Seed: 1, Scenario: upgrade.SingleSector,
			Method: core.PowerOnly, Kind: KindExecute,
			Exec: &ExecSpec{Chaos: "kpi-breach@1"},
		},
	}
	c, err := o.Submit(specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("campaign did not finish: %v", err)
	}
	snap := c.Snapshot()
	if snap.Counts["done"] != 3 {
		t.Fatalf("counts = %v, want 3 done", snap.Counts)
	}
	for i, j := range snap.Jobs {
		if j.Result == nil || j.Result.Exec == nil {
			t.Fatalf("job %d: no exec status on result", i)
		}
	}
	clean := snap.Jobs[0].Result.Exec
	if clean.State != "done" || clean.Halted {
		t.Errorf("clean job: state=%q halted=%v, want done", clean.State, clean.Halted)
	}
	faulted := snap.Jobs[1].Result.Exec
	if faulted.State != "done" || faulted.Retries < 1 {
		t.Errorf("faulted job: state=%q retries=%d, want done with >= 1 retry", faulted.State, faulted.Retries)
	}
	breached := snap.Jobs[2].Result.Exec
	if !breached.Halted || !breached.RolledBack {
		t.Errorf("breached job: halted=%v rolledBack=%v, want halted+rolled-back", breached.Halted, breached.RolledBack)
	}
}

func TestCampaignExecuteValidation(t *testing.T) {
	cache := NewEngineCache(2)
	o, err := New(Config{Build: testBuild(cache), Cache: cache, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	base := JobSpec{Class: topology.Suburban, Seed: 1, Scenario: upgrade.SingleSector, Method: core.PowerOnly}

	bad := base
	bad.Kind = KindExecute
	bad.Exec = &ExecSpec{Chaos: "meteor@3"}
	if _, err := o.Submit([]JobSpec{bad}); err == nil {
		t.Error("unparseable chaos script accepted")
	}

	neg := base
	neg.Kind = KindExecute
	neg.Exec = &ExecSpec{Retries: -1}
	if _, err := o.Submit([]JobSpec{neg}); err == nil {
		t.Error("negative exec parameter accepted")
	}

	mismatched := base
	mismatched.Exec = &ExecSpec{}
	if _, err := o.Submit([]JobSpec{mismatched}); err == nil {
		t.Error("exec config on a plan job accepted")
	}
}

// TestExecSpecRejectsPushFaults: a simwindow push fault in an execute
// spec's chaos script fails validation with the live session's own
// message, before any market is built or planned.
func TestExecSpecRejectsPushFaults(t *testing.T) {
	spec := JobSpec{Class: topology.Suburban, Seed: 1, Kind: KindExecute, Exec: &ExecSpec{Chaos: "push-fail@2"}}
	err := spec.Validate()
	if err == nil || !strings.Contains(err.Error(), "only sector-down and surge faults run in a session") {
		t.Fatalf("Validate = %v, want the session's push-fault error", err)
	}
	spec.Exec.Chaos = "push-delay@2+5,sector-down@3:1"
	if err := spec.Validate(); err != nil {
		t.Errorf("chaos push-delay with a timed fault: Validate = %v, want nil", err)
	}
}
