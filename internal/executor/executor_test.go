// Tests live in package executor_test so they can drive the executor
// through the chaos package's fault-injecting Network, which itself
// imports executor.
package executor_test

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"magus/internal/chaos"
	"magus/internal/core"
	"magus/internal/executor"
	"magus/internal/journal"
	"magus/internal/migrate"
	"magus/internal/runbook"
	"magus/internal/simwindow"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// The shared fixture: one miniature suburban market and one planned
// gradual runbook, built once. Every test runs against a fresh
// SimNetwork forked from the same engine, so tests never share mutable
// state.
var (
	fixOnce sync.Once
	fixEng  *core.Engine
	fixRB   *runbook.Runbook
	fixErr  error
)

func fixture(t *testing.T) (*core.Engine, *runbook.Runbook) {
	t.Helper()
	fixOnce.Do(func() {
		eng, err := core.NewEngine(core.SetupConfig{
			Seed:          1,
			Class:         topology.Suburban,
			RegionSpanM:   5400,
			CellSizeM:     300,
			EqualizeSteps: 40,
		})
		if err != nil {
			fixErr = err
			return
		}
		plan, err := eng.Mitigate(upgrade.SingleSector, core.PowerOnly, utility.Performance)
		if err != nil {
			fixErr = err
			return
		}
		mig, err := plan.GradualMigration(migrate.Options{})
		if err != nil {
			fixErr = err
			return
		}
		rb, err := runbook.Build(plan, mig)
		if err != nil {
			fixErr = err
			return
		}
		fixEng, fixRB = eng, rb
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	if len(fixRB.Steps) < 3 {
		t.Fatalf("fixture runbook has %d steps, tests need >= 3", len(fixRB.Steps))
	}
	return fixEng, fixRB
}

// freshNet forks a new simulated network for one test. Deterministic:
// no noise, no diurnal profile, so utilities depend only on the pushed
// configuration.
func freshNet(t *testing.T) *executor.SimNetwork {
	t.Helper()
	eng, rb := fixture(t)
	net, err := executor.NewSimNetwork(eng.Before, rb, simwindow.Config{Seed: 1})
	if err != nil {
		t.Fatalf("sim network: %v", err)
	}
	return net
}

// fastOpts keeps retry sleeps out of the test wall clock while leaving
// deadlines generous enough for -race CI.
func fastOpts() executor.Options {
	return executor.Options{
		StepDeadline: 10 * time.Second,
		Retries:      3,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   4 * time.Millisecond,
		Seed:         7,
	}
}

func TestExecutorCleanRun(t *testing.T) {
	_, rb := fixture(t)
	net := freshNet(t)
	ex, err := executor.New(net, rb, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ex.Run(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if st.State != executor.RunDone || st.Halted {
		t.Fatalf("state = %q halted=%v, want done", st.State, st.Halted)
	}
	for _, ss := range st.Steps {
		if ss.State != executor.StepVerified {
			t.Errorf("step %d state = %q, want verified", ss.Index, ss.State)
		}
	}
	for _, step := range rb.Steps {
		if n := net.Pushes(step); n != 1 {
			t.Errorf("step %d pushed %d times, want exactly 1", step.Index, n)
		}
	}
	if st.Samples == 0 || st.Retries != 0 {
		t.Errorf("samples=%d retries=%d, want samples>0 retries=0", st.Samples, st.Retries)
	}
}

// TestExecutorCleanRunEndsAtRunbookFloor pins the chain from plan to
// executor: a clean run on a flat network pushes each scenario's gradual
// runbook to C_after, so its last sample reads the runbook's
// UtilityFloor, f(C_after), within BelowFloor's tie band, for the
// observed utility and the floor alike.
func TestExecutorCleanRunEndsAtRunbookFloor(t *testing.T) {
	eng, _ := fixture(t)
	for _, sc := range []upgrade.Scenario{upgrade.SingleSector, upgrade.FullSite, upgrade.FourCorners} {
		plan, err := eng.Mitigate(sc, core.PowerOnly, utility.Performance)
		if err != nil {
			t.Fatal(err)
		}
		mig, err := plan.GradualMigration(migrate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := runbook.Build(plan, mig)
		if err != nil {
			t.Fatal(err)
		}
		net, err := executor.NewSimNetwork(eng.Before, rb, simwindow.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := executor.New(net, rb, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		st, err := ex.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.State != executor.RunDone {
			t.Fatalf("%s: state = %q, want done", sc.Short(), st.State)
		}
		for field, got := range map[string]float64{"utility": st.FinalUtility, "floor": st.FinalFloor} {
			if simwindow.BelowFloor(got, rb.UtilityFloor) || simwindow.BelowFloor(rb.UtilityFloor, got) {
				t.Errorf("%s: final %s %.12g, runbook floor %.12g", sc.Short(), field, got, rb.UtilityFloor)
			}
		}
	}
}

// TestExecutorChaosDeterministic is the acceptance scenario: a fixed
// seed and a fault plan with a push failure (retried), a push delay
// (absorbed) and a crash point. The first incarnation dies at the
// crash; a second executor over the same journal and the same network
// resumes and completes — with every forward step pushed exactly once.
func TestExecutorChaosDeterministic(t *testing.T) {
	_, rb := fixture(t)
	net := freshNet(t)
	plan, err := chaos.Parse("push-error@1x2,push-delay@2+30,crash-after-commit@3")
	if err != nil {
		t.Fatal(err)
	}
	cnet := plan.Instrument(net)

	jr, err := journal.Open(filepath.Join(t.TempDir(), "exec.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()

	opts := fastOpts()
	opts.RunID = "t1"
	opts.Journal = jr
	opts.CrashHook = cnet.Hook()

	ex, err := executor.New(cnet, rb, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ex.Run(context.Background())
	if !errors.Is(err, executor.ErrKilled) {
		t.Fatalf("first incarnation: err = %v, want ErrKilled", err)
	}
	if st.State != executor.RunKilled {
		t.Fatalf("first incarnation state = %q, want killed", st.State)
	}
	if st.Retries < 2 {
		t.Errorf("retries = %d, want >= 2 (push-error@1x2)", st.Retries)
	}

	// Second incarnation: same journal, same network (the world as the
	// crash left it).
	ex2, err := executor.New(cnet, rb, opts)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st2.State != executor.RunDone || !st2.Resumed {
		t.Fatalf("resume state = %q resumed=%v, want done/true", st2.State, st2.Resumed)
	}
	for _, step := range rb.Steps {
		if n := net.Pushes(step); n != 1 {
			t.Errorf("step %d pushed %d times across crash+resume, want exactly 1", step.Index, n)
		}
	}
	assertCommitOnce(t, jr, "t1", rb)
}

// assertCommitOnce replays the journal and asserts exactly one commit
// and at most one intent record per step — the journal-side half of the
// exactly-once property.
func assertCommitOnce(t *testing.T, jr *journal.Journal, runID string, rb *runbook.Runbook) {
	t.Helper()
	if err := jr.Sync(); err != nil {
		t.Fatal(err)
	}
	intents := map[int]int{}
	commits := map[int]int{}
	err := journal.Replay(jr.Path(), func(rec journal.Record) error {
		if rec.Campaign != runID {
			return nil
		}
		switch rec.Type {
		case journal.TypeExecStep:
			intents[rec.Job]++
		case journal.TypeExecCommit:
			commits[rec.Job]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range rb.Steps {
		if commits[step.Index] != 1 {
			t.Errorf("step %d has %d commit records, want exactly 1", step.Index, commits[step.Index])
		}
		if intents[step.Index] != 1 {
			t.Errorf("step %d has %d intent records, want exactly 1", step.Index, intents[step.Index])
		}
	}
}

// TestExecutorHaltsAndRollsBack injects a sustained floor breach from
// step 2 on: the watchdog must halt the run and the rollback must
// restore the network to its pre-run utility.
func TestExecutorHaltsAndRollsBack(t *testing.T) {
	_, rb := fixture(t)
	net := freshNet(t)
	baseline := net.Utility()
	plan, err := chaos.Parse("kpi-breach@2")
	if err != nil {
		t.Fatal(err)
	}
	cnet := plan.Instrument(net)
	opts := fastOpts()
	opts.CrashHook = cnet.Hook()
	ex, err := executor.New(cnet, rb, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ex.Run(context.Background())
	if err != nil {
		t.Fatalf("halted run should not error (guard doing its job): %v", err)
	}
	if !st.Halted || st.HaltStep != 2 {
		t.Fatalf("halted=%v haltStep=%d, want halt at step 2", st.Halted, st.HaltStep)
	}
	if !strings.Contains(st.HaltReason, "below floor") {
		t.Errorf("halt reason = %q, want a floor-breach reason", st.HaltReason)
	}
	if !st.RolledBack || st.State != executor.RunRolledBack {
		t.Fatalf("rolledBack=%v state=%q, want full rollback", st.RolledBack, st.State)
	}
	// Steps 1 and 2 committed, then unwound; later steps never ran.
	for _, ss := range st.Steps {
		switch {
		case ss.Index <= 2 && ss.State != executor.StepRolledBack:
			t.Errorf("step %d state = %q, want rolled-back", ss.Index, ss.State)
		case ss.Index > 2 && ss.State != executor.StepPending:
			t.Errorf("step %d state = %q, want pending", ss.Index, ss.State)
		}
	}
	got := net.Utility()
	tol := 1e-6 * (1 + math.Abs(baseline))
	if math.Abs(got-baseline) > tol {
		t.Errorf("post-rollback utility %.9f != baseline %.9f", got, baseline)
	}
}

// TestExecutorRetryExhaustion scripts more push errors than the retry
// budget: the step must halt the run and the committed prefix must roll
// back.
func TestExecutorRetryExhaustion(t *testing.T) {
	_, rb := fixture(t)
	net := freshNet(t)
	plan, err := chaos.Parse("push-error@2x10")
	if err != nil {
		t.Fatal(err)
	}
	cnet := plan.Instrument(net)
	opts := fastOpts()
	opts.Retries = 2
	opts.CrashHook = cnet.Hook()
	ex, err := executor.New(cnet, rb, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ex.Run(context.Background())
	if err != nil {
		t.Fatalf("halted run should not error: %v", err)
	}
	if !st.Halted || st.HaltStep != 2 || !strings.Contains(st.HaltReason, "push failed") {
		t.Fatalf("halted=%v step=%d reason=%q, want push exhaustion at step 2",
			st.Halted, st.HaltStep, st.HaltReason)
	}
	if !st.RolledBack {
		t.Fatal("committed prefix not rolled back")
	}
	if n := net.Pushes(rb.Steps[0]); n != 1 {
		t.Errorf("step 1 pushed %d times, want 1", n)
	}
	// Step 2 never landed: every attempt was eaten by chaos before the
	// inner network saw it.
	if n := net.Pushes(rb.Steps[1]); n != 0 {
		t.Errorf("step 2 reached the network %d times, want 0", n)
	}
}

// TestExecutorToleratesKPILoss drops two of step 1's KPI reports; the
// loss budget absorbs them and the run still completes.
func TestExecutorToleratesKPILoss(t *testing.T) {
	_, rb := fixture(t)
	net := freshNet(t)
	plan, err := chaos.Parse("kpi-loss@1x2")
	if err != nil {
		t.Fatal(err)
	}
	cnet := plan.Instrument(net)
	opts := fastOpts()
	opts.CrashHook = cnet.Hook()
	ex, err := executor.New(cnet, rb, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != executor.RunDone {
		t.Fatalf("state = %q, want done (halt: %q)", st.State, st.HaltReason)
	}
	if st.SamplesLost != 2 {
		t.Errorf("samples lost = %d, want 2", st.SamplesLost)
	}
}

// TestExecutorGraceAbsorbsTransientBreach scripts a bounded two-sample
// breach, inside the default grace window of 2: the watchdog must not
// halt.
func TestExecutorGraceAbsorbsTransientBreach(t *testing.T) {
	_, rb := fixture(t)
	net := freshNet(t)
	plan, err := chaos.Parse("kpi-breach@1x2")
	if err != nil {
		t.Fatal(err)
	}
	cnet := plan.Instrument(net)
	opts := fastOpts()
	opts.CrashHook = cnet.Hook()
	ex, err := executor.New(cnet, rb, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != executor.RunDone {
		t.Fatalf("state = %q (halt: %q), want done — 2 below-floor samples are within grace", st.State, st.HaltReason)
	}
	if st.SamplesBelowFloor != 2 {
		t.Errorf("samples below floor = %d, want 2", st.SamplesBelowFloor)
	}
}

// TestExecutorHaltsAfterGrace: under a sustained breach the watchdog
// tolerates exactly GraceSamples below-floor samples and halts on the
// next one, counting one floor breach.
func TestExecutorHaltsAfterGrace(t *testing.T) {
	_, rb := fixture(t)
	for _, grace := range []int{1, 3} {
		plan, err := chaos.Parse("kpi-breach@1")
		if err != nil {
			t.Fatal(err)
		}
		cnet := plan.Instrument(freshNet(t))
		opts := fastOpts()
		opts.GraceSamples = grace
		opts.CrashHook = cnet.Hook()
		opts.Counters = &executor.Counters{}
		ex, err := executor.New(cnet, rb, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ex.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !st.Halted || st.HaltStep != 1 || !strings.Contains(st.HaltReason, "below floor") {
			t.Fatalf("grace %d: halted=%v step=%d reason=%q, want a floor breach at step 1",
				grace, st.Halted, st.HaltStep, st.HaltReason)
		}
		if st.SamplesBelowFloor != grace+1 {
			t.Errorf("grace %d: %d samples below floor, want %d", grace, st.SamplesBelowFloor, grace+1)
		}
		if n := opts.Counters.FloorBreaches.Load(); n != 1 {
			t.Errorf("grace %d: %d floor breaches counted, want 1", grace, n)
		}
	}
}

func TestExecutorValidation(t *testing.T) {
	_, rb := fixture(t)
	net := freshNet(t)
	if _, err := executor.New(nil, rb, executor.Options{}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := executor.New(net, &runbook.Runbook{}, executor.Options{}); err == nil {
		t.Error("empty runbook accepted")
	}
	jr, err := journal.Open(filepath.Join(t.TempDir(), "j.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if _, err := executor.New(net, rb, executor.Options{Journal: jr}); err == nil {
		t.Error("journaled run without RunID accepted")
	}
}

// TestManagerRun drives a run through the Manager: journal file under
// the dir, shared counters, status served while running and after.
func TestManagerRun(t *testing.T) {
	_, rb := fixture(t)
	net := freshNet(t)
	m := executor.NewManager(t.TempDir())
	defer m.Close()
	run, err := m.Start(net, rb, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-run.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish")
	}
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	if st := run.Status(); st.State != executor.RunDone {
		t.Fatalf("state = %q, want done", st.State)
	}
	c := m.Counters().Snapshot()
	if c.Runs != 1 || c.Completed != 1 || c.StepsVerified != int64(len(rb.Steps)) {
		t.Errorf("counters = %+v, want 1 run, 1 completed, %d steps verified", c, len(rb.Steps))
	}
	if m.Active() != 0 {
		t.Errorf("active = %d, want 0", m.Active())
	}
}

// TestManagerSkipsDeadRunJournals restarts a manager over a dir holding
// an earlier process's run journals: new IDs must start above them, so
// a fresh run never appends to (or replays) a dead run's checkpoints.
func TestManagerSkipsDeadRunJournals(t *testing.T) {
	_, rb := fixture(t)
	dir := t.TempDir()

	m1 := executor.NewManager(dir)
	run1, err := m1.Start(freshNet(t), rb, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	<-run1.Done()
	m1.Close()

	m2 := executor.NewManager(dir)
	defer m2.Close()
	run2, err := m2.Start(freshNet(t), rb, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if run2.ID == run1.ID {
		t.Fatalf("restarted manager reused run ID %q", run1.ID)
	}
	<-run2.Done()
	if err := run2.Err(); err != nil {
		t.Fatal(err)
	}
	if st := run2.Status(); st.State != executor.RunDone || st.Resumed {
		t.Fatalf("state=%q resumed=%v, want a fresh done run", st.State, st.Resumed)
	}
}
