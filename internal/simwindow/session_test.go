package simwindow_test

import (
	"math"
	"reflect"
	"testing"

	"magus/internal/netmodel"
	"magus/internal/runbook"
	"magus/internal/schedule"
	"magus/internal/simwindow"
	"magus/internal/utility"
)

// TestSessionMatchesRun: Run is a driver over a Session, so on a
// push-free window (every push scheduled past the end) the samples a
// bare Session produces must equal Run's series bit for bit in every
// KPI field — across more than two resync periods, with diurnal load,
// noise, a surge and a sector-down.
func TestSessionMatchesRun(t *testing.T) {
	eng, _, grad, _ := fixture(t)
	profile := schedule.DefaultProfile()
	faults, err := simwindow.ParseFaults(
		"surge@10+8:" + itoa(grad.Targets[0]) + ":x1.8, sector-down@25:" + itoa(grad.TunedSectors[0]))
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	const ticks = 150
	cfg := simwindow.Config{
		Seed:           13,
		Ticks:          ticks,
		PushEveryTicks: ticks + 1,
		Profile:        &profile,
		LoadNoise:      0.05,
		Faults:         faults,
		Workers:        2,
	}
	out := run(t, grad, cfg)
	if out.Summary.PushesApplied != 0 || out.Summary.FaultsInjected != 2 {
		t.Fatalf("window not push-free with both faults: %+v", out.Summary)
	}

	sess, err := simwindow.NewSession(eng.Before, grad, cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	handovers, below := 0.0, 0.0
	for _, tk := range out.Series {
		s := sess.Advance()
		got := simwindow.Tick{Tick: s.Tick, LoadFactor: s.LoadFactor, Utility: s.Utility,
			FloorUtility: s.Floor, Handovers: s.Handovers, MaxSectorLoad: s.MaxSectorLoad,
			UsersBelowFloor: s.UsersBelowFloor}
		want := tk
		want.HourOfDay, want.Events = 0, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: session sample diverged from Run:\nsession: %+v\nrun:     %+v", tk.Tick, got, want)
		}
		handovers += s.Handovers
		below += s.UsersBelowFloor
	}
	if handovers == 0 || below == 0 {
		t.Fatalf("faults moved no handovers (%g) or below-floor users (%g)", handovers, below)
	}
}

// TestSessionOpenEndedSurge: a surge with duration 0 never expires. A
// session's Ticks is only a default, so a surge fired past it must
// still be in effect ticks later.
func TestSessionOpenEndedSurge(t *testing.T) {
	eng, _, grad, _ := fixture(t)
	at := len(grad.Steps) + 30 + 5 // past the defaulted Ticks
	faults, err := simwindow.ParseFaults("surge@" + itoa(at) + "+0:" + itoa(grad.Targets[0]) + ":x3")
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	sess, err := simwindow.NewSession(eng.Before, grad, simwindow.Config{Seed: 1, Faults: faults})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	var u []float64
	for i := 0; i <= at+5; i++ {
		u = append(u, sess.Advance().Utility)
	}
	before, fired, later := u[at-1], u[at], u[at+5]
	if math.Abs(fired-before) < 1 {
		t.Fatalf("surge at tick %d did not move utility: %.6f -> %.6f", at, before, fired)
	}
	if math.Abs(later-fired) > 1e-9*(1+math.Abs(fired)) {
		t.Fatalf("open-ended surge expired: utility %.6f at tick %d, %.6f five ticks later (pre-surge %.6f)",
			fired, at, later, before)
	}
}

// TestConstructorsValidateFaults: New and NewSession share one fault
// validation, so a bad script is rejected by both (and push faults,
// which a session leaves to the chaos layer, by NewSession alone).
func TestConstructorsValidateFaults(t *testing.T) {
	eng, _, grad, _ := fixture(t)
	sector := itoa(grad.Targets[0])
	cases := []struct {
		script        string
		newOK, sessOK bool
	}{
		{"surge@3+0:" + sector + ":x2", true, true},
		{"sector-down@0:" + sector, true, true},
		{"push-delay@2+1", true, false},
		{"push-fail@1", true, false},
		{"push-delay@2+0", false, false},
		{"push-delay@2+-4", false, false},
		{"push-fail@999", false, false},
		{"sector-down@-7:1", false, false},
		{"surge@3+-5:1:x2", false, false},
		{"surge@3+2:1:x0", false, false},
		{"sector-down@3:99999", false, false},
	}
	for _, c := range cases {
		faults, err := simwindow.ParseFaults(c.script)
		if err != nil {
			t.Fatalf("ParseFaults(%q): %v", c.script, err)
		}
		cfg := simwindow.Config{Faults: faults}
		if _, err := simwindow.New(eng.Before, grad, cfg); (err == nil) != c.newOK {
			t.Errorf("New(%q): err = %v, want ok=%v", c.script, err, c.newOK)
		}
		if _, err := simwindow.NewSession(eng.Before, grad, cfg); (err == nil) != c.sessOK {
			t.Errorf("NewSession(%q): err = %v, want ok=%v", c.script, err, c.sessOK)
		}
	}
}

// TestConstructorsValidateConfig: New and NewSession reject a start
// hour or load noise that is negative or not finite, and negative ticks
// or halt-after-below ticks, with an error — never a panic in the diurnal profile lookup.
func TestConstructorsValidateConfig(t *testing.T) {
	eng, _, grad, _ := fixture(t)
	profile := schedule.DefaultProfile()
	cases := map[string]simwindow.Config{
		"start hour -1":   {Profile: &profile, StartHour: -1},
		"start hour NaN":  {Profile: &profile, StartHour: math.NaN()},
		"start hour +Inf": {Profile: &profile, StartHour: math.Inf(1)},
		"noise NaN":       {LoadNoise: math.NaN()},
		"noise +Inf":      {LoadNoise: math.Inf(1)},
		"noise -0.1":      {LoadNoise: -0.1},
		"ticks -1":        {Ticks: -1},
		"halt ticks -1":   {HaltAfterBelowTicks: -1},
	}
	for name, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		if _, err := simwindow.New(eng.Before, grad, cfg); err == nil {
			t.Errorf("%s: New accepted", name)
		}
		if _, err := simwindow.NewSession(eng.Before, grad, cfg); err == nil {
			t.Errorf("%s: NewSession accepted", name)
		}
	}
	ok := simwindow.Config{Profile: &profile, StartHour: 23.5, LoadNoise: 0.02, Ticks: 5}
	if _, err := simwindow.NewSession(eng.Before, grad, ok); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestSessionStatesMatchNewState: a session builds its live state and
// its C_after reference on a fork of the base state's model, and each
// must equal NewState of its configuration on a fresh fork (C_before,
// and C_before with every runbook step applied) bit for bit on every
// read the meter and the executor take.
func TestSessionStatesMatchNewState(t *testing.T) {
	eng, _, grad, one := fixture(t)
	for _, rb := range []*runbook.Runbook{grad, one} {
		sess, err := simwindow.NewSession(eng.Before, rb, simwindow.Config{Ticks: 10})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		afterCfg := eng.Before.Cfg.Clone()
		for _, step := range rb.Steps {
			for _, ch := range step.Changes {
				if _, err := afterCfg.Apply(ch); err != nil {
					t.Fatal(err)
				}
			}
		}
		fork := eng.Before.Model.ForkUsers()
		live, afterRef := simwindow.SessionStates(sess)
		sameState(t, rb.Method+" live", live, fork.NewState(eng.Before.Cfg.Clone()))
		sameState(t, rb.Method+" C_after", afterRef, fork.NewState(afterCfg))
	}
}

// sameState fails unless got equals want bit for bit on every per-grid
// and per-sector read, the full-scan utility and the KPI aggregate
// utility.
func sameState(t *testing.T, where string, got, want *netmodel.State) {
	t.Helper()
	if !got.Cfg.Equal(want.Cfg) {
		t.Fatalf("%s: configuration differs", where)
	}
	eq := func(what string, i int, g, w float64) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %s[%d] = %v, NewState %v", where, what, i, g, w)
		}
	}
	m := want.Model
	for g := 0; g < m.Grid.NumCells(); g++ {
		if got.ServingSector(g) != want.ServingSector(g) {
			t.Fatalf("%s: grid %d served by %d, NewState %d", where, g, got.ServingSector(g), want.ServingSector(g))
		}
		eq("MaxRateBps", g, got.MaxRateBps(g), want.MaxRateBps(g))
		eq("SINRdB", g, got.SINRdB(g), want.SINRdB(g))
	}
	for b := 0; b < m.Net.NumSectors(); b++ {
		eq("Load", b, got.Load(b), want.Load(b))
		if got.ServedGrids(b) != want.ServedGrids(b) {
			t.Fatalf("%s: sector %d serves %d grids, NewState %d", where, b, got.ServedGrids(b), want.ServedGrids(b))
		}
	}
	eq("UtilityScan", 0, got.UtilityScan(utility.Performance, 1), want.UtilityScan(utility.Performance, 1))
	want.EnableKPIAggregates(utility.Performance, 1)
	eq("KPIUtility", 0, got.KPIUtility(), want.KPIUtility())
}

// TestMeterBelowRebuildSkip: a resync skips the below-floor rebuild when
// nothing repaired the sum since the last one. Twin sessions — one
// skipping, one forced to rebuild at every resync — take the same pushes,
// sector-down and surge and must report the same samples bit for bit,
// with the skip taken on some resyncs and the rebuild on others. Each
// kind of repair gets a resync period of its own (resyncs fall on ticks
// 63, 127, 191, ...): the pushes in the first, the sector-down's flag
// flips alone in the second, the start and the end of a surge over the
// downed sector's (flagged) grids in the third and fourth, and nothing
// after.
func TestMeterBelowRebuildSkip(t *testing.T) {
	eng, _, grad, _ := fixture(t)
	profile := schedule.DefaultProfile()
	down := itoa(grad.TunedSectors[0])
	faults, err := simwindow.ParseFaults("sector-down@90:" + down + ", surge@150+60:" + down + ":x2.5")
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	cfg := simwindow.Config{Seed: 5, Ticks: 400, Profile: &profile, LoadNoise: 0.05, Faults: faults}
	skip, forced := mustSession(t, eng.Before, grad, cfg), mustSession(t, eng.Before, grad, cfg)
	skips, rebuilds := 0, 0
	for tick := 0; tick < cfg.Ticks; tick++ {
		if i := tick / 4; tick%4 == 0 && i < len(grad.Steps) && tick < 64 {
			for _, s := range []*simwindow.Session{skip, forced} {
				if err := s.Push(grad.Steps[i].Changes); err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
			}
		}
		got, skipped := simwindow.AdvanceBelowProbe(skip, false)
		want, _ := simwindow.AdvanceBelowProbe(forced, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: skipping meter diverged from rebuilding one:\nskip:    %+v\nrebuild: %+v", tick, got, want)
		}
		if skipped {
			skips++
		} else if (tick+1)%64 == 0 { // a Session resyncs every 64 ticks
			rebuilds++
		}
	}
	if skips == 0 || rebuilds == 0 {
		t.Fatalf("resyncs: %d skipped the below-floor rebuild, %d rebuilt; want both", skips, rebuilds)
	}
}

func mustSession(t *testing.T, base *netmodel.State, rb *runbook.Runbook, cfg simwindow.Config) *simwindow.Session {
	t.Helper()
	s, err := simwindow.NewSession(base, rb, cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	return s
}
