package chaos

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"magus/internal/executor"
	"magus/internal/runbook"
	"magus/internal/simwindow"
)

func TestParseFaultRoundTrip(t *testing.T) {
	for _, s := range []string{
		"push-error@2",
		"push-error@2x3",
		"push-delay@1+50",
		"kpi-loss@4",
		"kpi-loss@4x2",
		"kpi-breach@3",
		"kpi-breach@3x5",
		"crash-before-push@1",
		"crash-before-commit@2",
		"crash-after-commit@7",
	} {
		f, err := ParseFault(s)
		if err != nil {
			t.Errorf("ParseFault(%q): %v", s, err)
			continue
		}
		// Counted kinds normalize the implicit x1 away on render; both
		// spellings must reparse to the same fault.
		back, err := ParseFault(f.String())
		if err != nil {
			t.Errorf("reparse %q (from %q): %v", f.String(), s, err)
			continue
		}
		if back != f {
			t.Errorf("round trip %q -> %q -> %+v != %+v", s, f.String(), back, f)
		}
	}
}

func TestParseFaultErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"push-error",
		"meteor@3",
		"push-error@zero",
		"push-error@0",
		"push-error@-1",
		"push-error@2x0",
		"push-error@2xmany",
		"push-delay@2",
		"push-delay@2+0",
		"push-delay@2+ms",
		"push-delay@2+9223372036855", // overflows time.Duration
		"crash-before-push@",
	} {
		if _, err := ParseFault(s); err == nil {
			t.Errorf("ParseFault(%q) accepted", s)
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := Parse("push-error@1x2, kpi-breach@3,, crash-after-commit@2")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 3 {
		t.Fatalf("parsed %d faults, want 3", len(p.Faults))
	}
	if !p.HasCrash() {
		t.Error("HasCrash() = false with a crash fault present")
	}
	if p2, _ := Parse("push-error@1"); p2.HasCrash() {
		t.Error("HasCrash() = true without crash faults")
	}
}

// TestSplit partitions a mixed script: chaos delivery faults to the
// plan, simwindow environmental faults to the timed list, unknown kinds
// rejected by whichever grammar claims them.
func TestSplit(t *testing.T) {
	plan, timed, err := Split("push-error@2x2,sector-down@5:17,kpi-breach@3,surge@2+10:4:x1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Faults) != 2 {
		t.Errorf("chaos faults = %d, want 2", len(plan.Faults))
	}
	if len(timed) != 2 {
		t.Errorf("timed faults = %d, want 2", len(timed))
	}
	for _, f := range timed {
		if f.Kind != simwindow.FaultSectorDown && f.Kind != simwindow.FaultLoadSurge {
			t.Errorf("timed fault of kind %v leaked through", f.Kind)
		}
	}
	if _, _, err := Split("meteor@3"); err == nil {
		t.Error("unknown kind accepted")
	}
	if plan, timed, err := Split(""); err != nil || len(plan.Faults) != 0 || len(timed) != 0 {
		t.Errorf("empty script: plan=%d timed=%d err=%v, want all empty", len(plan.Faults), len(timed), err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	r := Rates{PushError: 0.5, PushDelay: 0.5, KPILoss: 0.5}
	a := Generate(42, 10, r)
	b := Generate(42, 10, r)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equal seeds diverged:\n%s\n%s", a, b)
	}
	c := Generate(43, 10, r)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the identical plan (possible but wildly unlikely)")
	}
	if p := Generate(42, 10, Rates{}); len(p.Faults) != 0 {
		t.Errorf("zero rates generated %d faults", len(p.Faults))
	}
	full := Generate(42, 10, Rates{PushError: 1, PushDelay: 1, KPILoss: 1})
	if len(full.Faults) != 30 {
		t.Errorf("rate-1 plan has %d faults, want 30 (3 kinds x 10 steps)", len(full.Faults))
	}
	if full.HasCrash() {
		t.Error("Generate produced a crash fault; crashes are scripted, never sampled")
	}
	// Generated plans round-trip through the grammar.
	back, err := Parse(full.String())
	if err != nil {
		t.Fatalf("reparse generated plan: %v", err)
	}
	if !reflect.DeepEqual(full, back) {
		t.Error("generated plan did not round-trip through Parse")
	}
}

// fakeNet is a minimal executor.Network recording what reaches it.
type fakeNet struct {
	pushes  []string
	applied map[string]bool
	tick    int
}

func newFakeNet() *fakeNet { return &fakeNet{applied: map[string]bool{}} }

func (f *fakeNet) key(step runbook.Step) string {
	return fmt.Sprintf("%s/%d", step.Kind, step.Index)
}
func (f *fakeNet) Preflight(step runbook.Step) error { return nil }
func (f *fakeNet) Push(ctx context.Context, step runbook.Step) error {
	f.pushes = append(f.pushes, f.key(step))
	f.applied[f.key(step)] = true
	return nil
}
func (f *fakeNet) Applied(step runbook.Step) (bool, error) { return f.applied[f.key(step)], nil }
func (f *fakeNet) Observe(step int) (executor.Sample, error) {
	f.tick++
	return executor.Sample{Tick: f.tick, Utility: 100, Floor: 90}, nil
}

func step(index int, kind runbook.StepKind) runbook.Step {
	return runbook.Step{Index: index, Kind: kind}
}

func TestNetworkInjectsPushFaults(t *testing.T) {
	plan, err := Parse("push-error@1x2,push-delay@2+10")
	if err != nil {
		t.Fatal(err)
	}
	inner := newFakeNet()
	n := plan.Instrument(inner)
	ctx := context.Background()

	// Step 1 fails twice before the third attempt reaches the network.
	for i := 0; i < 2; i++ {
		if err := n.Push(ctx, step(1, runbook.KindMigration)); err == nil {
			t.Fatalf("push %d: injected error did not fire", i+1)
		}
	}
	if err := n.Push(ctx, step(1, runbook.KindMigration)); err != nil {
		t.Fatalf("push 3: %v", err)
	}
	if len(inner.pushes) != 1 {
		t.Errorf("inner saw %d pushes, want 1 (faults consumed the rest)", len(inner.pushes))
	}

	// Step 2 is delayed once, then clean.
	start := time.Now()
	if err := n.Push(ctx, step(2, runbook.KindMigration)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("delayed push took %v, want >= 10ms", d)
	}
	start = time.Now()
	if err := n.Push(ctx, step(2, runbook.KindOffAir)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 10*time.Millisecond {
		t.Errorf("second push still delayed (%v); delay must be consumed", d)
	}
	if n.Injected() != 3 {
		t.Errorf("injected = %d, want 3 (2 errors + 1 delay)", n.Injected())
	}
}

func TestNetworkSparesRollbackPushes(t *testing.T) {
	plan, err := Parse("push-error@1x100")
	if err != nil {
		t.Fatal(err)
	}
	inner := newFakeNet()
	n := plan.Instrument(inner)
	if err := n.Push(context.Background(), step(1, runbook.KindRollback)); err != nil {
		t.Fatalf("rollback push was instrumented: %v", err)
	}
	if len(inner.pushes) != 1 {
		t.Errorf("inner saw %d pushes, want 1", len(inner.pushes))
	}
}

func TestNetworkInjectsKPIFaults(t *testing.T) {
	plan, err := Parse("kpi-loss@1x2,kpi-breach@2x1,kpi-breach@3")
	if err != nil {
		t.Fatal(err)
	}
	inner := newFakeNet()
	n := plan.Instrument(inner)

	for i := 0; i < 2; i++ {
		if _, err := n.Observe(1); err == nil {
			t.Fatalf("observe %d: loss did not fire", i+1)
		}
	}
	if _, err := n.Observe(1); err != nil {
		t.Fatalf("loss not consumed: %v", err)
	}
	// The clock advances even when the report is lost.
	if inner.tick != 3 {
		t.Errorf("inner tick = %d, want 3", inner.tick)
	}

	// Bounded breach: one depressed sample, then clean.
	if s, _ := n.Observe(2); s.Utility >= s.Floor {
		t.Error("bounded breach did not depress the sample")
	}
	if s, _ := n.Observe(2); s.Utility < s.Floor {
		t.Error("bounded breach not consumed")
	}

	// Sustained breach from step 3 on: never consumed, and it also
	// covers later steps.
	for _, stepIdx := range []int{3, 3, 4, 7} {
		if s, _ := n.Observe(stepIdx); s.Utility >= s.Floor {
			t.Errorf("sustained breach missing at step %d", stepIdx)
		}
	}
	// Steps before the sustained start stay clean.
	if s, _ := n.Observe(1); s.Utility < s.Floor {
		t.Error("sustained breach leaked to an earlier step")
	}
}

func TestHookFiresOnce(t *testing.T) {
	plan, err := Parse("crash-before-commit@2")
	if err != nil {
		t.Fatal(err)
	}
	n := plan.Instrument(newFakeNet())
	hook := n.Hook()
	if err := hook(executor.CrashBeforePush, 2); err != nil {
		t.Errorf("wrong point fired: %v", err)
	}
	if err := hook(executor.CrashBeforeCommit, 1); err != nil {
		t.Errorf("wrong step fired: %v", err)
	}
	if err := hook(executor.CrashBeforeCommit, 2); !errors.Is(err, executor.ErrKilled) {
		t.Errorf("scripted site: err = %v, want ErrKilled", err)
	}
	if err := hook(executor.CrashBeforeCommit, 2); err != nil {
		t.Errorf("site fired twice: %v", err)
	}
}

func TestFaultStringGrammarAgreement(t *testing.T) {
	// Every kind's String output must parse under its own grammar line —
	// guards against the doc comment and the parser drifting apart.
	faults := []Fault{
		{Kind: KindPushError, Step: 1, Count: 2},
		{Kind: KindPushDelay, Step: 2, Delay: 30 * time.Millisecond},
		{Kind: KindKPILoss, Step: 3, Count: 1},
		{Kind: KindKPIBreach, Step: 4},
		{Kind: KindCrashAfterCommit, Step: 5},
	}
	p := Plan{Faults: faults}
	if strings.Count(p.String(), ",") != len(faults)-1 {
		t.Errorf("plan string %q malformed", p.String())
	}
	back, err := Parse(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Errorf("plan round trip: %q -> %+v", p.String(), back)
	}
}
