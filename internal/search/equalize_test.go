package search

import (
	"testing"

	"magus/internal/config"
	"magus/internal/utility"
)

// configChange is shorthand for a combined power/tilt change.
func configChange(sector int, powerDelta float64, tiltDelta int) config.Change {
	return config.Change{Sector: sector, PowerDelta: powerDelta, TiltDelta: tiltDelta}
}

// rawScenario builds a scenario WITHOUT the planner pass, so Equalize
// has genuine work to do.
func rawScenario(t *testing.T, seed int64) *scenario {
	t.Helper()
	sc := makeScenario(t, seed)
	// makeScenario equalizes; rebuild a raw baseline from defaults.
	raw := sc.model.NewState(sc.base.Cfg.Clone())
	// Reset to planning defaults.
	for b := 0; b < raw.Cfg.NumSectors(); b++ {
		def := sc.model.Net.Sectors[b].DefaultPowerDbm
		raw.MustApply(configChange(b, def-raw.Cfg.PowerDbm(b), -raw.Cfg.TiltIndex(b)))
	}
	raw.AssignUsersUniform()
	sc.base = raw
	return sc
}

func TestEqualizeImprovesOrHolds(t *testing.T) {
	sc := rawScenario(t, 21)
	u0 := sc.base.Utility(utility.Performance)
	res, err := Equalize(sc.base, Options{MaxSteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalUtility < u0-1e-9 {
		t.Fatalf("Equalize worsened utility: %v -> %v", u0, res.FinalUtility)
	}
	// Step utilities strictly increase.
	prev := u0
	for i, st := range res.Steps {
		if st.Utility <= prev {
			t.Fatalf("step %d utility %v not above %v", i, st.Utility, prev)
		}
		prev = st.Utility
	}
}

func TestEqualizeReachesFixedPoint(t *testing.T) {
	sc := rawScenario(t, 23)
	if _, err := Equalize(sc.base, Options{MaxSteps: 400}); err != nil {
		t.Fatal(err)
	}
	// A second pass over the converged configuration finds nothing.
	res, err := Equalize(sc.base, Options{MaxSteps: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 0 {
		t.Errorf("second Equalize pass accepted %d moves; expected a fixed point", len(res.Steps))
	}
}

func TestEqualizeCapAtDefaultPower(t *testing.T) {
	sc := rawScenario(t, 25)
	if _, err := Equalize(sc.base, Options{MaxSteps: 400, CapAtDefaultPower: true}); err != nil {
		t.Fatal(err)
	}
	net := sc.model.Net
	for b := 0; b < sc.base.Cfg.NumSectors(); b++ {
		if sc.base.Cfg.PowerDbm(b) > net.Sectors[b].DefaultPowerDbm+1e-9 {
			t.Fatalf("sector %d power %v above planner default %v",
				b, sc.base.Cfg.PowerDbm(b), net.Sectors[b].DefaultPowerDbm)
		}
	}
}

// TestEqualizeRespectsMaxSteps: the cap holds per commit, not per
// sector, so one sector's pass cannot overshoot it.
func TestEqualizeRespectsMaxSteps(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		maxSteps int
	}{{27, 3}, {21, 1}} {
		sc := rawScenario(t, tc.seed)
		res, err := Equalize(sc.base, Options{MaxSteps: tc.maxSteps})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Steps) > tc.maxSteps {
			t.Errorf("seed %d: steps = %d, cap was %d", tc.seed, len(res.Steps), tc.maxSteps)
		}
	}
}
