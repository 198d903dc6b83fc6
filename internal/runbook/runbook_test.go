package runbook

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"magus/internal/config"
	"magus/internal/core"
	"magus/internal/migrate"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

func buildFixture(t *testing.T) (*core.Plan, *migrate.Plan) {
	t.Helper()
	engine, err := core.NewEngine(core.SetupConfig{
		Seed:          3,
		Class:         topology.Suburban,
		RegionSpanM:   6000,
		CellSizeM:     200,
		EqualizeSteps: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Mitigate(upgrade.SingleSector, core.Joint, utility.Performance)
	if err != nil {
		t.Fatal(err)
	}
	mig, err := plan.GradualMigration(migrate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan, mig
}

func TestBuildNil(t *testing.T) {
	if _, err := Build(nil, nil); err == nil {
		t.Error("nil inputs should fail")
	}
}

func TestBuildStructure(t *testing.T) {
	plan, mig := buildFixture(t)
	rb, err := Build(plan, mig)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Steps) != len(mig.Steps) {
		t.Fatalf("runbook has %d steps, migration has %d", len(rb.Steps), len(mig.Steps))
	}
	// Exactly one off-air step, and it is the last one.
	offAir := 0
	for i, s := range rb.Steps {
		if s.Index != i+1 {
			t.Fatalf("step %d has index %d", i, s.Index)
		}
		if s.Kind == KindOffAir {
			offAir++
			if i != len(rb.Steps)-1 {
				t.Error("off-air step must be last")
			}
			if s.Note == "" {
				t.Error("off-air step should carry a note")
			}
		}
	}
	if offAir != 1 {
		t.Fatalf("off-air steps = %d, want 1", offAir)
	}
	// Targets never appear among tuned sectors.
	for _, tuned := range rb.TunedSectors {
		for _, tg := range rb.Targets {
			if tuned == tg {
				t.Fatal("target listed as tuned sector")
			}
		}
	}
	// Tuned sectors are sorted.
	for i := 1; i < len(rb.TunedSectors); i++ {
		if rb.TunedSectors[i-1] > rb.TunedSectors[i] {
			t.Fatal("tuned sectors not sorted")
		}
	}
}

func TestRollbackRestoresConfig(t *testing.T) {
	plan, mig := buildFixture(t)
	rb, err := Build(plan, mig)
	if err != nil {
		t.Fatal(err)
	}
	// Apply every step's changes to a copy of C_before, then the
	// rollback: the configuration must return exactly to C_before.
	engineBefore := plan.Upgrade.Cfg.Clone()
	// plan.Upgrade has targets off; reconstruct C_before by turning them
	// back on.
	for _, tg := range plan.Targets {
		if _, err := engineBefore.Apply(config.Change{Sector: tg, TurnOn: true}); err != nil {
			t.Fatal(err)
		}
	}
	original := engineBefore.Clone()
	for _, step := range rb.Steps {
		for _, ch := range step.Changes {
			if _, err := engineBefore.Apply(ch); err != nil {
				t.Fatal(err)
			}
		}
	}
	if engineBefore.Equal(original) {
		t.Fatal("runbook steps had no effect")
	}
	for _, ch := range rb.Rollback {
		if _, err := engineBefore.Apply(ch); err != nil {
			t.Fatal(err)
		}
	}
	if !engineBefore.Equal(original) {
		t.Fatal("rollback did not restore the original configuration")
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	plan, mig := buildFixture(t)
	rb, err := Build(plan, mig)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Runbook
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Title != rb.Title || len(decoded.Steps) != len(rb.Steps) {
		t.Error("JSON round trip lost data")
	}
	if len(decoded.Rollback) != len(rb.Rollback) {
		t.Error("rollback lost in round trip")
	}
}

func TestWriteText(t *testing.T) {
	plan, mig := buildFixture(t)
	rb, err := Build(plan, mig)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"RUNBOOK:", "EXECUTION", "ROLLBACK", "off-air"} {
		if !strings.Contains(text, want) {
			t.Errorf("runbook text missing %q", want)
		}
	}
}

// TestTunedSectorOrdering pins the ordering contract after the move to
// sort.Ints: tuned sectors come out strictly ascending regardless of
// the map-iteration order they were collected in, and step indices stay
// dense and 1-based.
func TestTunedSectorOrdering(t *testing.T) {
	plan, mig := buildFixture(t)
	for run := 0; run < 5; run++ {
		rb, err := Build(plan, mig)
		if err != nil {
			t.Fatal(err)
		}
		if len(rb.TunedSectors) < 2 {
			t.Skipf("fixture tunes %d sectors; ordering unobservable", len(rb.TunedSectors))
		}
		for i := 1; i < len(rb.TunedSectors); i++ {
			if rb.TunedSectors[i-1] >= rb.TunedSectors[i] {
				t.Fatalf("run %d: tuned sectors not strictly ascending: %v", run, rb.TunedSectors)
			}
		}
		for i, s := range rb.Steps {
			if s.Index != i+1 {
				t.Fatalf("run %d: step %d carries index %d", run, i, s.Index)
			}
		}
	}
}

// TestBuildRollback checks the unwind document: reverse step order,
// per-step inverses, pre-step expected utilities, and a Rollback that
// re-applies the original pushes.
func TestBuildRollback(t *testing.T) {
	plan, mig := buildFixture(t)
	rb, err := Build(plan, mig)
	if err != nil {
		t.Fatal(err)
	}
	rb.Wave = &WaveMeta{Wave: 2, Slot: 3, Semantics: "stopping", HaltFloor: rb.ExpectedAfter}
	out := BuildRollback(rb, "drill")
	if len(out.Steps) != len(rb.Steps) {
		t.Fatalf("rollback has %d steps, original %d", len(out.Steps), len(rb.Steps))
	}
	if out.Wave != rb.Wave {
		t.Error("rollback dropped the wave annotation")
	}
	if !strings.Contains(out.Steps[0].Note, "drill") {
		t.Errorf("first rollback step does not carry the halt reason: %q", out.Steps[0].Note)
	}
	for i, s := range out.Steps {
		if s.Kind != KindRollback {
			t.Errorf("step %d kind %q", i, s.Kind)
		}
		src := rb.Steps[len(rb.Steps)-1-i]
		if len(s.Changes) != len(src.Changes) {
			t.Errorf("step %d pushes %d changes, source step %d", i, len(s.Changes), len(src.Changes))
		}
		want := rb.ExpectedBefore
		if j := len(rb.Steps) - 1 - i; j > 0 {
			want = rb.Steps[j-1].ExpectedUtility
		}
		if s.ExpectedUtility != want {
			t.Errorf("step %d expects utility %f, want pre-step value %f", i, s.ExpectedUtility, want)
		}
	}
	// The last original step is off-air, so the FIRST rollback push must
	// return the targets to air.
	backOn := false
	for _, ch := range out.Steps[0].Changes {
		if ch.TurnOn {
			backOn = true
		}
	}
	if !backOn {
		t.Error("first rollback step does not turn the targets back on")
	}
	// Applying the original steps then the rollback document's steps must
	// restore C_before exactly (the same contract TestRollbackRestoresConfig
	// checks for the flat Rollback list).
	cfg := plan.Upgrade.Cfg.Clone()
	for _, tg := range plan.Targets {
		if _, err := cfg.Apply(config.Change{Sector: tg, TurnOn: true}); err != nil {
			t.Fatal(err)
		}
	}
	original := cfg.Clone()
	for _, step := range rb.Steps {
		for _, ch := range step.Changes {
			if _, err := cfg.Apply(ch); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, step := range out.Steps {
		for _, ch := range step.Changes {
			if _, err := cfg.Apply(ch); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !cfg.Equal(original) {
		t.Fatal("rollback document did not restore the original configuration")
	}
	// And the document's own Rollback is the original pushes, in order.
	var originalPushes []config.Change
	for _, s := range rb.Steps {
		originalPushes = append(originalPushes, s.Changes...)
	}
	if len(out.Rollback) != len(originalPushes) {
		t.Fatalf("rollback-of-rollback has %d changes, original %d", len(out.Rollback), len(originalPushes))
	}
	for i := range out.Rollback {
		if out.Rollback[i] != originalPushes[i] {
			t.Fatalf("rollback-of-rollback change %d = %v, want %v", i, out.Rollback[i], originalPushes[i])
		}
	}
	// The rollback document's steps, concatenated, are the flat Rollback
	// list: both unwind the steps last first, each by Step.Inverse.
	var unwound []config.Change
	for _, s := range out.Steps {
		unwound = append(unwound, s.Changes...)
	}
	if !slices.Equal(unwound, rb.Rollback) {
		t.Fatalf("rollback steps push %v, flat Rollback is %v", unwound, rb.Rollback)
	}
}

// TestWriteTextWave: the wave annotation renders into the operator
// document.
func TestWriteTextWave(t *testing.T) {
	plan, mig := buildFixture(t)
	rb, err := Build(plan, mig)
	if err != nil {
		t.Fatal(err)
	}
	rb.Wave = &WaveMeta{Wave: 4, Slot: 5, Semantics: "rolling", HaltFloor: 123.4}
	var buf bytes.Buffer
	if err := rb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"wave 4", "slot 5", "rolling", "123.4"} {
		if !strings.Contains(text, want) {
			t.Errorf("wave-annotated runbook text missing %q", want)
		}
	}
}
