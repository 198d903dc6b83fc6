package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"magus/internal/config"
	"magus/internal/utility"
)

// TestRandomChangeSequencesMatchFullRecompute is the package's central
// property test: for many random sequences of power/tilt/on-off changes,
// the incrementally maintained state must agree exactly with a fresh
// evaluation of the final configuration.
func TestRandomChangeSequencesMatchFullRecompute(t *testing.T) {
	m := testModel(t)
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		st := m.NewState(config.New(m.Net))
		st.AssignUsersUniform()

		for i := 0; i < 30; i++ {
			ch := config.Change{Sector: rng.Intn(m.Net.NumSectors())}
			switch rng.Intn(4) {
			case 0:
				ch.PowerDelta = float64(rng.Intn(13) - 6)
			case 1:
				ch.TiltDelta = rng.Intn(9) - 4
			case 2:
				ch.TurnOff = true
			case 3:
				ch.TurnOn = true
			}
			if _, err := st.Apply(ch); err != nil {
				t.Fatalf("trial %d change %d (%v): %v", trial, i, ch, err)
			}
		}

		fresh := m.NewState(st.Cfg.Clone())
		for g := 0; g < m.Grid.NumCells(); g++ {
			if st.ServingSector(g) != fresh.ServingSector(g) {
				t.Fatalf("trial %d: grid %d serving %d vs %d",
					trial, g, st.ServingSector(g), fresh.ServingSector(g))
			}
			// The rate level, which Apply keeps without a walk while the
			// SINR stays inside its bounds.
			if st.level[g] != fresh.level[g] {
				t.Fatalf("trial %d: grid %d rate level %d vs %d", trial, g, st.level[g], fresh.level[g])
			}
		}
		for b := 0; b < m.Net.NumSectors(); b++ {
			if d := st.Load(b) - fresh.Load(b); d > 1e-6 || d < -1e-6 {
				t.Fatalf("trial %d: sector %d load %v vs %v", trial, b, st.Load(b), fresh.Load(b))
			}
		}
		if du := st.Utility(utility.Performance) - fresh.Utility(utility.Performance); du > 1e-6 || du < -1e-6 {
			t.Fatalf("trial %d: utility drift %v", trial, du)
		}
	}
}

// TestLogUtilityClosedForm pins the log utility's one formula against
// its reference, utility.Performance.U of RateBps, over seeded random
// states at several uniform load factors. Each state has one sector
// whose served weight is cut so far that it sits under the 1-UE clamp,
// and one whose served weight is raised so far that its grids' rates
// fall under 1 kbps. Every weighted grid's max(L − λ, 0) term must be
// within 1e-12 of the reference, and exactly 0 wherever the reference
// is; every grid the KPI aggregates account must be accounted under its
// serving sector at its rate level, whose L its term read.
func TestLogUtilityClosedForm(t *testing.T) {
	base := testModel(t)
	u := utility.Performance
	clamped, subKbps := 0, 0
	for trial := 0; trial < 6; trial++ {
		for _, f := range []float64{0.15, 0.5, 1.0, 1.2} {
			rng := rand.New(rand.NewSource(int64(trial)))
			m := base.ForkUsers()
			st := m.NewState(config.New(m.Net))
			st.AssignUsersUniform()
			m.ScaleUsers(f)
			randomMoves := func(n int) {
				for i := 0; i < n; i++ {
					ch := config.Change{Sector: rng.Intn(m.Net.NumSectors())}
					switch rng.Intn(4) {
					case 0:
						ch.PowerDelta = float64(rng.Intn(13) - 6)
					case 1:
						ch.TiltDelta = rng.Intn(9) - 4
					case 2:
						ch.TurnOff = true
					case 3:
						ch.TurnOn = true
					}
					st.MustApply(ch)
				}
			}
			randomMoves(20)
			for k, factor := range []float64{0.002, 1000} {
				b := st.ServingSector(rng.Intn(m.Grid.NumCells()))
				for b < 0 || st.ServedGrids(b) == 0 {
					b = st.ServingSector(rng.Intn(m.Grid.NumCells()))
				}
				if k == 1 && st.Load(b) < 1 {
					continue // the cut sector itself
				}
				grids := servedGridsOf(st, b)
				m.ScaleUsersAt(grids, factor)
				st.NoteUsersScaledAt(grids, factor)
			}
			st.EnableKPIAggregates(u, 1)
			randomMoves(10)
			where := fmt.Sprintf("trial %d f=%v", trial, f)

			lam := st.lambdas(u, nil)
			for b := range lam {
				if st.ServedGrids(b) > 0 && st.Load(b) > 0 && st.Load(b) < 1 {
					clamped++
				}
			}
			for g := 0; g < m.Grid.NumCells(); g++ {
				if m.UE(g) == 0 {
					continue
				}
				want := u.U(st.RateBps(g))
				term := 0.0
				if b := st.bestSec[g]; b >= 0 {
					term = max(m.levels[st.level[g]].l-lam[b], 0)
				}
				if r := st.RateBps(g); r > 0 && r < 1000 {
					subKbps++
				}
				if math.Abs(term-want) > 1e-12 || want == 0 && term != 0 {
					t.Fatalf("%s: grid %d term %v, Performance.U %v", where, g, term, want)
				}
			}
			for g, b := range st.aggSec {
				if b >= 0 && (b != st.bestSec[g] || st.aggLvl[g] != st.level[g]) {
					t.Fatalf("%s: grid %d at level %d of sector %d accounted at level %d of sector %d",
						where, g, st.level[g], st.bestSec[g], st.aggLvl[g], b)
				}
			}
		}
	}
	if clamped == 0 || subKbps == 0 {
		t.Fatalf("degenerate draw: %d sectors under the 1-UE clamp, %d grids under 1 kbps", clamped, subKbps)
	}
}

// TestUtilityMatchesDirectEvaluation validates Utility against a sum of
// u(RateBps) per grid across utility-function switches.
func TestUtilityMatchesDirectEvaluation(t *testing.T) {
	m := testModel(t)
	st := m.NewState(config.New(m.Net))
	st.AssignUsersUniform()

	direct := func(u utility.Func) float64 {
		total := 0.0
		for g := 0; g < m.Grid.NumCells(); g++ {
			if w := m.UE(g); w != 0 {
				total += w * u.U(st.RateBps(g))
			}
		}
		return total
	}

	rng := rand.New(rand.NewSource(7))
	funcs := []utility.Func{utility.Performance, utility.Coverage, utility.SumRate}
	for i := 0; i < 30; i++ {
		// Mutate, then evaluate under an alternating utility function.
		st.MustApply(config.Change{
			Sector:     rng.Intn(m.Net.NumSectors()),
			PowerDelta: float64(rng.Intn(7) - 3),
		})
		u := funcs[i%len(funcs)]
		got := st.Utility(u)
		want := direct(u)
		if d := got - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("step %d (%s): Utility %v != direct %v", i, u.Name, got, want)
		}
	}
}

// TestHandoverConservation checks that every UE displaced by an outage
// is accounted for: it either hands over to another sector or drops out
// of service; nobody is double counted or lost.
func TestHandoverConservation(t *testing.T) {
	m := testModel(t)
	before := m.NewState(config.New(m.Net))
	before.AssignUsersUniform()

	after := before.Clone()
	central := m.Net.CentralSite()
	target := m.Net.Sites[central].Sectors[0]
	after.MustApply(config.Change{Sector: target, TurnOff: true})

	displaced := before.Load(target)
	handovers := HandoverUEs(before, after)
	lostService := before.ServedUE() - after.ServedUE()

	// Every UE of the dead sector either moved (counted in handovers)
	// or lost service entirely. Interference shifts can add further
	// handovers, so handovers + lost >= displaced.
	if handovers+lostService < displaced-1e-6 {
		t.Errorf("displaced %v UEs but only %v handovers + %v lost",
			displaced, handovers, lostService)
	}
	// Nothing exceeds the population.
	if handovers > m.TotalUE() || lostService > m.TotalUE() {
		t.Error("handover accounting exceeds population")
	}
	if lostService < -1e-9 {
		t.Errorf("service count grew (%v) when a sector died", -lostService)
	}
}

// setSINR rewrites grid g's serving and total power so that its linear
// SINR (bestMw / (noise + interference)), with no interference, is the
// nearest to want a float64 serving power gives, then lets updateRate
// see it. It returns the SINR updateRate saw.
func setSINR(s *State, g int, want float64) float64 {
	noise := s.Model.noiseMw
	mw := want * noise
	for i := 0; i < 8 && mw/noise != want; i++ {
		if mw/noise < want {
			mw = math.Nextafter(mw, math.Inf(1))
		} else {
			mw = math.Nextafter(mw, 0)
		}
	}
	s.bestMw[g] = mw
	s.totalMw[g] = mw
	s.updateRate(g)
	return mw / noise
}

// levelScan is the oracle for a SINR's rate level: the highest level
// whose floor the SINR reaches, found by a scan from level 0.
func levelScan(lv []rateLevel, sinr float64) uint8 {
	k := uint8(0)
	for int(k)+1 < len(lv) && sinr >= lv[k+1].lo {
		k++
	}
	return k
}

// TestRateBucketBoundaries pins updateRate's same-level skip to a fresh
// level scan at the edges of a grid's level bounds [lo, hi): a SINR of
// exactly hi belongs to the next level up, exactly lo stays, and one
// ulp below lo drops a level. After each, the grid's level must be the
// scan's.
func TestRateBucketBoundaries(t *testing.T) {
	m := testModel(t)
	base := baseline(t, m)
	checked := 0
	ran := map[string]int{}
	for g := 0; g < m.Grid.NumCells() && checked < 20; g++ {
		k := base.level[g]
		lo, hi := m.levels[k].lo, m.levels[k].hi
		if base.bestSec[g] < 0 || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			continue
		}
		s := base.Clone()
		s.EnableKPIAggregates(utility.Performance, 1)
		for _, tc := range []struct {
			name string
			sinr float64
			want uint8
		}{
			{"exactly hi", hi, k + 1},
			{"back inside", (lo + hi) / 2, k},
			{"exactly lo", lo, k},
			{"one ulp below lo", math.Nextafter(lo, 0), k - 1},
		} {
			sinr := setSINR(s, g, tc.sinr)
			if sinr != tc.sinr && tc.name != "back inside" {
				continue // no serving power lands exactly on this edge
			}
			ran[tc.name]++
			if got, want := s.level[g], levelScan(m.levels, sinr); got != want || got != tc.want {
				t.Fatalf("grid %d %s: level %d, scan %d, want %d", g, tc.name, got, want, tc.want)
			}
			// The KPI aggregates follow the level the grid now holds: a
			// grid with users and a rate is accounted at that level, any
			// other grid not at all.
			accounted := s.aggSec[g] >= 0
			if accounted != (s.level[g] > 0 && m.ue[g] > 0) || accounted && s.aggLvl[g] != s.level[g] {
				t.Fatalf("grid %d %s: aggregates account level %d (sector %d), grid holds %d",
					g, tc.name, s.aggLvl[g], s.aggSec[g], s.level[g])
			}
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d grids sit at a bounded rate level", checked)
	}
	for _, name := range []string{"exactly hi", "exactly lo", "one ulp below lo"} {
		if ran[name] == 0 {
			t.Errorf("no grid reached the %q case", name)
		}
	}
	t.Logf("cases run over %d grids: %v", checked, ran)
}
