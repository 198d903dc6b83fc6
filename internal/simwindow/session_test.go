package simwindow_test

import (
	"math"
	"reflect"
	"testing"

	"magus/internal/schedule"
	"magus/internal/simwindow"
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
