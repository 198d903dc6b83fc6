package migrate

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"magus/internal/config"
	"magus/internal/geo"
	"magus/internal/netmodel"
	"magus/internal/propagation"
	"magus/internal/search"
	"magus/internal/topology"
)

type fixture struct {
	model   *netmodel.Model
	before  *netmodel.State
	after   *netmodel.State
	targets []int
}

func makeFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	net := topology.MustGenerate(topology.GenConfig{
		Seed:   seed,
		Class:  topology.Suburban,
		Bounds: geo.NewRectCentered(geo.Point{}, 6000, 6000),
	})
	spm := propagation.MustNewSPM(2.635e9, nil)
	m := netmodel.MustNewModel(net, spm, net.Bounds, netmodel.Params{CellSizeM: 200})

	before := m.NewState(config.New(net))
	before.AssignUsersUniform()
	if _, err := search.Equalize(before, search.Options{MaxSteps: 300}); err != nil {
		t.Fatal(err)
	}
	before.AssignUsersUniform()

	central := net.CentralSite()
	targets := []int{net.Sites[central].Sectors[0]}

	after := before.Clone()
	for _, tg := range targets {
		after.MustApply(config.Change{Sector: tg, TurnOff: true})
	}
	neighbors := search.SortByDistanceTo(after, net.NeighborSectors(targets, 4000), targets)
	if _, err := search.Joint(after, before, neighbors, search.Options{}); err != nil {
		t.Fatal(err)
	}
	return &fixture{model: m, before: before, after: after, targets: targets}
}

func TestGradualReachesAfterConfig(t *testing.T) {
	fx := makeFixture(t, 3)
	plan, err := Gradual(fx.before, fx.after, fx.targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("empty plan")
	}
	last := plan.Steps[len(plan.Steps)-1]
	if !last.UpgradeStep {
		t.Error("final step must be the upgrade step")
	}
	// Final utility must be f(C_after).
	if math.Abs(last.Utility-plan.AfterUtility) > 1e-6 {
		t.Errorf("final utility %v != f(C_after) %v", last.Utility, plan.AfterUtility)
	}
	// Exactly one upgrade step.
	count := 0
	for _, s := range plan.Steps {
		if s.UpgradeStep {
			count++
		}
	}
	if count != 1 {
		t.Errorf("plan has %d upgrade steps, want 1", count)
	}
	replaysToAfter(t, "seed 3", plan, fx.before.Cfg, fx.after.Cfg)
}

func TestGradualUtilityFloor(t *testing.T) {
	fx := makeFixture(t, 3)
	plan, err := Gradual(fx.before, fx.after, fx.targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's central guarantee: the utility never drops below
	// f(C_after) at any recorded step (modulo the forced-jump case,
	// where the final value IS f(C_after)).
	if !plan.JumpedToAfter && plan.UtilityFloor < plan.AfterUtility-1e-9 {
		t.Errorf("utility floor %v below f(C_after) %v", plan.UtilityFloor, plan.AfterUtility)
	}
	// Inputs must be untouched.
	if fx.before.Cfg.Off(fx.targets[0]) {
		t.Error("Gradual modified the before state")
	}
}

func TestGradualReducesHandoverBurst(t *testing.T) {
	fx := makeFixture(t, 3)
	gradual, err := Gradual(fx.before, fx.after, fx.targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := OneShot(fx.before, fx.after, fx.targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gradual.Steps) <= 1 {
		t.Skip("gradual migration degenerated to a single step in this layout")
	}
	// Figure 11's claim: gradual tuning reduces the maximum simultaneous
	// handover burst.
	if gradual.MaxSimultaneousHandovers > oneShot.MaxSimultaneousHandovers {
		t.Errorf("gradual burst %v exceeds one-shot burst %v",
			gradual.MaxSimultaneousHandovers, oneShot.MaxSimultaneousHandovers)
	}
	// And improves the seamless fraction.
	if gradual.SeamlessFraction() < oneShot.SeamlessFraction()-1e-9 {
		t.Errorf("gradual seamless %v below one-shot %v",
			gradual.SeamlessFraction(), oneShot.SeamlessFraction())
	}
}

func TestGradualSeamlessMajority(t *testing.T) {
	fx := makeFixture(t, 5)
	plan, err := Gradual(fx.before, fx.after, fx.targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalHandovers == 0 {
		t.Skip("no handovers in this layout")
	}
	// The paper reports 96-99.7% seamless; we assert a clear majority.
	if plan.SeamlessFraction() < 0.5 {
		t.Errorf("seamless fraction = %v, expected majority seamless", plan.SeamlessFraction())
	}
}

func TestGradualHandoverAccounting(t *testing.T) {
	fx := makeFixture(t, 7)
	plan, err := Gradual(fx.before, fx.after, fx.targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sumH, sumS, maxH := 0.0, 0.0, 0.0
	for _, s := range plan.Steps {
		if s.Seamless > s.Handovers+1e-9 {
			t.Fatalf("step seamless %v exceeds handovers %v", s.Seamless, s.Handovers)
		}
		sumH += s.Handovers
		sumS += s.Seamless
		if s.Handovers > maxH {
			maxH = s.Handovers
		}
	}
	if math.Abs(sumH-plan.TotalHandovers) > 1e-9 || math.Abs(sumS-plan.SeamlessHandovers) > 1e-9 {
		t.Error("plan totals do not match step sums")
	}
	if math.Abs(maxH-plan.MaxSimultaneousHandovers) > 1e-9 {
		t.Error("max burst does not match steps")
	}
	if plan.TotalHandovers > fx.model.TotalUE()*float64(len(plan.Steps)) {
		t.Error("handovers exceed population x steps")
	}
}

func TestOneShotSingleStep(t *testing.T) {
	fx := makeFixture(t, 3)
	plan, err := OneShot(fx.before, fx.after, fx.targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || !plan.Steps[0].UpgradeStep {
		t.Fatalf("one-shot plan should be a single upgrade step, got %d", len(plan.Steps))
	}
	if math.Abs(plan.Steps[0].Utility-plan.AfterUtility) > 1e-6 {
		t.Errorf("one-shot final utility %v != f(C_after) %v",
			plan.Steps[0].Utility, plan.AfterUtility)
	}
	// UEs that were attached to the (now off) target must be hard
	// handovers: seamless < total whenever the target held UEs.
	if fx.before.Load(fx.targets[0]) > 0 && plan.SeamlessHandovers >= plan.TotalHandovers {
		t.Error("one-shot should include hard handovers from the off-air target")
	}
}

func TestGradualErrors(t *testing.T) {
	fx := makeFixture(t, 3)
	if _, err := Gradual(fx.before, fx.after, nil, Options{}); err == nil {
		t.Error("no targets should fail")
	}
	if _, err := Gradual(fx.before, fx.after, []int{-1}, Options{}); err == nil {
		t.Error("bad target should fail")
	}
	// Target not off in after.
	badAfter := fx.before.Clone()
	if _, err := Gradual(fx.before, badAfter, fx.targets, Options{}); err == nil {
		t.Error("target on-air in C_after should fail")
	}
	// Different models.
	other := makeFixture(t, 5)
	if _, err := Gradual(fx.before, other.after, fx.targets, Options{}); err == nil {
		t.Error("different models should fail")
	}
	if _, err := OneShot(fx.before, other.after, fx.targets, Options{}); err == nil {
		t.Error("OneShot with different models should fail")
	}
}

func TestSeamlessFractionEmptyPlan(t *testing.T) {
	p := &Plan{}
	if p.SeamlessFraction() != 1 {
		t.Error("no handovers should count as fully seamless")
	}
}

func TestUnitMovesDecomposition(t *testing.T) {
	fx := makeFixture(t, 3)
	cfg := fx.before.Cfg.Clone()
	after := cfg.Clone()
	after.AdjustPower(0, 2.5)
	after.AdjustTilt(1, -3)
	moves, err := unitMoves(cfg, after, map[int]bool{})
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the moves must land exactly on the target.
	replay := cfg.Clone()
	for _, mv := range moves {
		if _, err := replay.Apply(mv); err != nil {
			t.Fatal(err)
		}
	}
	if !replay.Equal(after) {
		t.Error("unit moves do not reproduce the target configuration")
	}
	// Each power move is at most 1 dB.
	for _, mv := range moves {
		if math.Abs(mv.PowerDelta) > 1+1e-9 {
			t.Errorf("move %v exceeds unit size", mv)
		}
		if mv.TiltDelta < -1 || mv.TiltDelta > 1 {
			t.Errorf("tilt move %v exceeds unit size", mv)
		}
	}
	// Targets are excluded.
	movesExcl, err := unitMoves(cfg, after, map[int]bool{0: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range movesExcl {
		if mv.Sector == 0 {
			t.Error("excluded sector present in moves")
		}
	}
}

// stepHandovers is the clone-diff reference for one step's handovers:
// the UE weight whose serving sector differs between prev and cur, in
// ascending grid order, split into seamless (source still on-air in cur)
// and hard.
func stepHandovers(prev, cur *netmodel.State) (total, seamless float64) {
	m := prev.Model
	for g := 0; g < m.Grid.NumCells(); g++ {
		w := m.UE(g)
		if w == 0 {
			continue
		}
		oldSec := prev.ServingSector(g)
		newSec := cur.ServingSector(g)
		if oldSec == newSec {
			continue
		}
		total += w
		if oldSec >= 0 && !cur.Cfg.Off(oldSec) {
			seamless += w
		}
	}
	return total, seamless
}

// refGradual is the clone-per-step reference for Gradual: the same
// walk, with each step's handovers taken by stepHandovers from a clone
// of the state at the start of the step. A bail-out carries the step it
// interrupted into the jump.
func refGradual(before, after *netmodel.State, targets []int, opts Options) (*Plan, error) {
	opts.applyDefaults()
	targetSet := map[int]bool{}
	for _, tg := range targets {
		targetSet[tg] = true
	}
	st := before.Clone()
	moves, err := unitMoves(st.Cfg, after.Cfg, targetSet)
	if err != nil {
		return nil, err
	}
	plan := &Plan{AfterUtility: after.Utility(opts.Util), UtilityFloor: math.Inf(1)}
	nextMove := 0
	jump := func(prev *netmodel.State, record StepRecord) {
		record.UpgradeStep = true
		diff, _ := st.Cfg.Diff(after.Cfg) // unitMoves already diffed the two networks
		for _, ch := range diff {
			if applied := st.MustApply(ch); !applied.IsZero() {
				record.Changes = append(record.Changes, applied)
				if !targetSet[applied.Sector] {
					record.Compensations++
				}
			}
		}
		record.Utility = st.Utility(opts.Util)
		record.Handovers, record.Seamless = stepHandovers(prev, st)
		plan.Steps = append(plan.Steps, record)
	}
	for len(plan.Steps) < opts.MaxSteps-1 {
		prev := st.Clone()
		holding := false
		for _, tg := range targets {
			holding = holding || st.Load(tg) > 0
		}
		if !holding {
			jump(prev, StepRecord{})
			break
		}
		record := StepRecord{}
		for _, tg := range targets {
			if applied := st.MustApply(config.Change{Sector: tg, PowerDelta: -opts.TargetStepDB}); !applied.IsZero() {
				record.Changes = append(record.Changes, applied)
			}
		}
		if len(record.Changes) == 0 {
			plan.JumpedToAfter = true
			jump(prev, record)
			break
		}
		u := st.Utility(opts.Util)
		for u < plan.AfterUtility && nextMove < len(moves) {
			applied := st.MustApply(moves[nextMove])
			nextMove++
			if !applied.IsZero() {
				record.Changes = append(record.Changes, applied)
				record.Compensations++
				u = st.Utility(opts.Util)
			}
		}
		if u < plan.AfterUtility && nextMove >= len(moves) {
			plan.JumpedToAfter = true
			jump(prev, record)
			break
		}
		record.Utility = u
		record.Handovers, record.Seamless = stepHandovers(prev, st)
		plan.Steps = append(plan.Steps, record)
	}
	if n := len(plan.Steps); n == 0 || !plan.Steps[n-1].UpgradeStep {
		plan.JumpedToAfter = true
		jump(st.Clone(), StepRecord{})
	}
	for _, s := range plan.Steps {
		plan.TotalHandovers += s.Handovers
		plan.SeamlessHandovers += s.Seamless
		plan.MaxSimultaneousHandovers = math.Max(plan.MaxSimultaneousHandovers, s.Handovers)
		plan.UtilityFloor = math.Min(plan.UtilityFloor, s.Utility)
	}
	return plan, nil
}

// refOneShot is the clone-diff reference for OneShot: every non-target
// change counts as a compensation, as in a gradual plan's jump.
func refOneShot(before, after *netmodel.State, targets []int, opts Options) *Plan {
	opts.applyDefaults()
	st := before.Clone()
	diff, _ := st.Cfg.Diff(after.Cfg) // OneShot already diffed the two networks
	record := StepRecord{UpgradeStep: true}
	for _, ch := range diff {
		if applied := st.MustApply(ch); !applied.IsZero() {
			record.Changes = append(record.Changes, applied)
			if !slices.Contains(targets, applied.Sector) {
				record.Compensations++
			}
		}
	}
	record.Utility = st.Utility(opts.Util)
	record.Handovers, record.Seamless = stepHandovers(before, st)
	return &Plan{
		Steps:                    []StepRecord{record},
		MaxSimultaneousHandovers: record.Handovers,
		TotalHandovers:           record.Handovers,
		SeamlessHandovers:        record.Seamless,
		UtilityFloor:             record.Utility,
		AfterUtility:             after.Utility(opts.Util),
	}
}

// replaysToAfter fails unless the plan's changes, applied in order from
// before, leave no difference to after.
func replaysToAfter(t testing.TB, name string, plan *Plan, before, after *config.Config) {
	t.Helper()
	cfg := before.Clone()
	for _, s := range plan.Steps {
		for _, ch := range s.Changes {
			if _, err := cfg.Apply(ch); err != nil {
				t.Fatalf("%s: replaying %v: %v", name, ch, err)
			}
		}
	}
	diff, err := cfg.Diff(after)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 0 {
		t.Errorf("%s: replayed changes miss C_after in %d sectors: %v", name, len(diff), diff)
	}
}

// samePlan fails unless got and want agree bit for bit (every step's
// changes, utility, handovers, seamless weight, compensation count and
// upgrade flag, and every plan total) and got's changes, replayed from
// before, end at after.
func samePlan(t testing.TB, name string, got, want *Plan, before, after *config.Config) {
	t.Helper()
	replaysToAfter(t, name, got, before, after)
	bits := func(field string, step int, g, w float64) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s step %d: %s %v, oracle %v", name, step, field, g, w)
		}
	}
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("%s: %d steps, oracle %d", name, len(got.Steps), len(want.Steps))
	}
	for i := range got.Steps {
		g, w := got.Steps[i], want.Steps[i]
		if !slices.Equal(g.Changes, w.Changes) {
			t.Errorf("%s step %d: changes %v, oracle %v", name, i, g.Changes, w.Changes)
		}
		bits("utility", i, g.Utility, w.Utility)
		bits("handovers", i, g.Handovers, w.Handovers)
		bits("seamless", i, g.Seamless, w.Seamless)
		if g.Compensations != w.Compensations || g.UpgradeStep != w.UpgradeStep {
			t.Errorf("%s step %d: compensations/upgrade %d/%v, oracle %d/%v",
				name, i, g.Compensations, g.UpgradeStep, w.Compensations, w.UpgradeStep)
		}
	}
	bits("total handovers", -1, got.TotalHandovers, want.TotalHandovers)
	bits("seamless handovers", -1, got.SeamlessHandovers, want.SeamlessHandovers)
	bits("max burst", -1, got.MaxSimultaneousHandovers, want.MaxSimultaneousHandovers)
	bits("utility floor", -1, got.UtilityFloor, want.UtilityFloor)
	bits("after utility", -1, got.AfterUtility, want.AfterUtility)
	if got.JumpedToAfter != want.JumpedToAfter {
		t.Errorf("%s: JumpedToAfter %v, oracle %v", name, got.JumpedToAfter, want.JumpedToAfter)
	}
}

// checkAgainstOracle runs Gradual at each options value, and OneShot at
// the first, and pins each plan to its clone-per-step reference.
func checkAgainstOracle(t testing.TB, name string, before, after *netmodel.State, targets []int, opts ...Options) {
	t.Helper()
	for _, o := range opts {
		got, err := Gradual(before, after, targets, o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refGradual(before, after, targets, o)
		if err != nil {
			t.Fatal(err)
		}
		samePlan(t, fmt.Sprintf("%s gradual %+v", name, o), got, want, before.Cfg, after.Cfg)
	}
	got, err := OneShot(before, after, targets, opts[0])
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, name+" one-shot", got, refOneShot(before, after, targets, opts[0]), before.Cfg, after.Cfg)
}

func TestMigrationMatchesCloneOracle(t *testing.T) {
	for _, seed := range []int64{3, 5, 7} {
		fx := makeFixture(t, seed)
		checkAgainstOracle(t, fmt.Sprintf("seed %d", seed), fx.before, fx.after, fx.targets,
			Options{}, Options{TargetStepDB: 1}, Options{TargetStepDB: 6}, Options{MaxSteps: 2})
	}
}

// TestMaxStepsCountsFinalJump pins the cap: the forced jump to C_after
// is one of the MaxSteps steps, not one past them.
func TestMaxStepsCountsFinalJump(t *testing.T) {
	fx := makeFixture(t, 3)
	full, err := Gradual(fx.before, fx.after, fx.targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Steps) < 3 {
		t.Fatalf("fixture migrates in %d steps; the cap needs a longer plan", len(full.Steps))
	}
	for maxSteps := 1; maxSteps < len(full.Steps); maxSteps++ {
		plan, err := Gradual(fx.before, fx.after, fx.targets, Options{MaxSteps: maxSteps})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Steps) != maxSteps {
			t.Errorf("MaxSteps %d: plan has %d steps", maxSteps, len(plan.Steps))
		}
		if last := plan.Steps[len(plan.Steps)-1]; !last.UpgradeStep || !plan.JumpedToAfter {
			t.Errorf("MaxSteps %d: a capped plan must end with the forced jump", maxSteps)
		}
	}
}
