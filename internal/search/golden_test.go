package search

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"magus/internal/config"
	"magus/internal/netmodel"
	"magus/internal/utility"
)

// This file certifies the evalengine-based searches against reference
// implementations of the search algorithms, kept here as plain loops
// over exported State APIs. Every reference scores each candidate on
// the exact oracle: the move applied to a clone of the state, then the
// clone's full-scan Utility; it applies only the moves it accepts to the
// state itself. The engine-based searches must reproduce the references
// bit for bit: same steps, same utilities, same evaluation counts, same
// final configuration.
//
// Applying and undoing each candidate on the shared state would not do
// as a reference: the round trips leave ulp residue in the radio arrays
// that feeds SINRImprovers and every later score, and on seed 11 that
// residue changes Joint's whole trajectory. The engine prices candidates
// without mutating the state, so the clone-scored reference is the one
// it must match exactly.

// refPower is Algorithm 1 with every candidate scored on the oracle.
func refPower(st *netmodel.State, base *netmodel.State, neighbors []int, opts Options) (*Result, error) {
	opts.applyDefaults()
	res := &Result{}
	unit := opts.PowerUnitDB
	baseUtility := base.Utility(opts.Util)
	if opts.CapUtility > 0 && opts.CapUtility < baseUtility {
		baseUtility = opts.CapUtility
	}
	current := st.Utility(opts.Util)
	for len(res.Steps) < opts.MaxSteps {
		if current >= baseUtility {
			res.Recovered = true
			break
		}
		affected := st.DegradedGrids(base)
		if len(affected) == 0 {
			res.Recovered = true
			break
		}
		var beta []int
		if opts.NoPruning {
			for _, b := range neighbors {
				if !st.Cfg.Off(b) && !st.Cfg.AtMaxPower(b) {
					beta = append(beta, b)
				}
			}
		} else {
			beta = st.SINRImprovers(affected, neighbors, unit)
		}
		if len(beta) == 0 {
			unit += opts.PowerUnitDB
			if unit > opts.MaxPowerUnitDB {
				break
			}
			continue
		}
		bestSector := -1
		bestUtility := current
		for _, b := range beta {
			u, ok, err := refScore(st, config.Change{Sector: b, PowerDelta: unit}, opts.Util)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			res.Evaluations++
			if u > bestUtility {
				bestUtility = u
				bestSector = b
			}
		}
		if bestSector < 0 {
			unit += opts.PowerUnitDB
			if unit > opts.MaxPowerUnitDB {
				break
			}
			continue
		}
		applied, err := st.Apply(config.Change{Sector: bestSector, PowerDelta: unit})
		if err != nil {
			return nil, err
		}
		current = st.Utility(opts.Util)
		res.Steps = append(res.Steps, Step{Change: applied, Utility: current})
	}
	res.FinalUtility = st.Utility(opts.Util)
	return res, nil
}

// refClimb is the per-neighbor greedy climb (Tilt / NaivePower) with
// every step scored on the oracle.
func refClimb(st *netmodel.State, neighbors []int, opts Options, unit config.Change) (*Result, error) {
	opts.applyDefaults()
	res := &Result{}
	current := st.Utility(opts.Util)
	for _, b := range neighbors {
		if st.Cfg.Off(b) {
			continue
		}
		if opts.CapUtility > 0 && current >= opts.CapUtility {
			break
		}
		mv := unit
		mv.Sector = b
		for len(res.Steps) < opts.MaxSteps {
			u, ok, err := refScore(st, mv, opts.Util)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			res.Evaluations++
			if u <= current {
				break
			}
			applied, err := st.Apply(mv)
			if err != nil {
				return nil, err
			}
			current = st.Utility(opts.Util)
			res.Steps = append(res.Steps, Step{Change: applied, Utility: current})
		}
	}
	res.FinalUtility = st.Utility(opts.Util)
	return res, nil
}

// refScore is the oracle: mv applied to a clone of st, then the clone's
// full-scan utility. ok is false when mv is a no-op on st.
func refScore(st *netmodel.State, mv config.Change, util utility.Func) (u float64, ok bool, err error) {
	cand := st.Clone()
	applied, err := cand.Apply(mv)
	if err != nil || applied.IsZero() {
		return 0, false, err
	}
	return cand.Utility(util), true, nil
}

// refJoint is the seed alternation of tilt and power phases.
func refJoint(st *netmodel.State, base *netmodel.State, neighbors []int, opts Options) (*Result, error) {
	out := &Result{}
	const maxRounds = 3
	for round := 0; round < maxRounds; round++ {
		tiltRes, err := refClimb(st, neighbors, opts, config.Change{TiltDelta: -1})
		if err != nil {
			return nil, err
		}
		powerRes, err := refPower(st, base, neighbors, opts)
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, tiltRes.Steps...)
		out.Steps = append(out.Steps, powerRes.Steps...)
		out.Evaluations += tiltRes.Evaluations + powerRes.Evaluations
		out.FinalUtility = powerRes.FinalUtility
		out.Recovered = powerRes.Recovered
		if len(tiltRes.Steps) == 0 && len(powerRes.Steps) == 0 {
			break
		}
	}
	return out, nil
}

// refEqualize is the planner coordinate descent with every move scored
// on the oracle, stopping as soon as MaxSteps moves are committed.
func refEqualize(st *netmodel.State, opts Options) (*Result, error) {
	opts.applyDefaults()
	res := &Result{}
	moves := []config.Change{
		{PowerDelta: opts.PowerUnitDB},
		{PowerDelta: -opts.PowerUnitDB},
		{TiltDelta: opts.TiltUnit},
		{TiltDelta: -opts.TiltUnit},
	}
	current := st.Utility(opts.Util)
	for pass := 0; ; pass++ {
		improvedInPass := false
		for b := 0; b < st.Cfg.NumSectors() && len(res.Steps) < opts.MaxSteps; b++ {
			if st.Cfg.Off(b) {
				continue
			}
			for _, mv := range moves {
				if len(res.Steps) >= opts.MaxSteps {
					break
				}
				mv.Sector = b
				if opts.CapAtDefaultPower && mv.PowerDelta > 0 &&
					st.Cfg.PowerDbm(b)+mv.PowerDelta > st.Model.Net.Sectors[b].DefaultPowerDbm {
					continue
				}
				u, ok, err := refScore(st, mv, opts.Util)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				res.Evaluations++
				if u > current+1e-12 {
					applied, err := st.Apply(mv)
					if err != nil {
						return nil, err
					}
					current = st.Utility(opts.Util)
					res.Steps = append(res.Steps, Step{Change: applied, Utility: current})
					improvedInPass = true
				}
			}
		}
		if !improvedInPass || len(res.Steps) >= opts.MaxSteps {
			break
		}
	}
	res.FinalUtility = current
	return res, nil
}

// refAnneal is simulated annealing with every proposal scored on the
// oracle, drawing from the RNG in the same order as Anneal.
func refAnneal(st *netmodel.State, neighbors []int, opts AnnealOptions) (*Result, error) {
	opts.applyDefaults()
	res := &Result{}
	rng := rand.New(rand.NewSource(opts.Seed))
	current := st.Utility(opts.Util)
	best := current
	bestCfg := st.Cfg.Clone()
	cooling := math.Pow(annealEndTemp/annealStartTemp, 1/float64(opts.Iterations))
	temp := float64(annealStartTemp)
	for i := 0; i < opts.Iterations; i++ {
		if opts.CapUtility > 0 && current >= opts.CapUtility {
			break
		}
		b := neighbors[rng.Intn(len(neighbors))]
		if st.Cfg.Off(b) {
			temp *= cooling
			continue
		}
		mv := config.Change{Sector: b}
		switch rng.Intn(4) {
		case 0:
			mv.PowerDelta = opts.PowerUnitDB
		case 1:
			mv.PowerDelta = -opts.PowerUnitDB
		case 2:
			mv.TiltDelta = 1
		case 3:
			mv.TiltDelta = -1
		}
		u, ok, err := refScore(st, mv, opts.Util)
		if err != nil {
			return nil, err
		}
		if !ok {
			temp *= cooling
			continue
		}
		res.Evaluations++
		if u >= current || rng.Float64() < math.Exp((u-current)/temp) {
			applied, err := st.Apply(mv)
			if err != nil {
				return nil, err
			}
			current = st.Utility(opts.Util)
			if current > best {
				best = current
				bestCfg = st.Cfg.Clone()
				res.Steps = append(res.Steps, Step{Change: applied, Utility: current})
			}
		}
		temp *= cooling
	}
	diff, err := st.Cfg.Diff(bestCfg)
	if err != nil {
		return nil, err
	}
	for _, ch := range diff {
		if _, err := st.Apply(ch); err != nil {
			return nil, err
		}
	}
	res.FinalUtility = st.Utility(opts.Util)
	return res, nil
}

// assertIdentical compares two results and final configurations bit for
// bit.
func assertIdentical(t *testing.T, name string, got, want *Result, gotCfg, wantCfg *config.Config) {
	t.Helper()
	if got.FinalUtility != want.FinalUtility {
		t.Errorf("%s: FinalUtility %v != seed %v", name, got.FinalUtility, want.FinalUtility)
	}
	if got.Evaluations != want.Evaluations {
		t.Errorf("%s: Evaluations %d != seed %d", name, got.Evaluations, want.Evaluations)
	}
	if got.Recovered != want.Recovered {
		t.Errorf("%s: Recovered %v != seed %v", name, got.Recovered, want.Recovered)
	}
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("%s: %d steps != seed %d", name, len(got.Steps), len(want.Steps))
	}
	for i := range got.Steps {
		if got.Steps[i].Change != want.Steps[i].Change {
			t.Errorf("%s: step %d change %v != seed %v", name, i, got.Steps[i].Change, want.Steps[i].Change)
		}
		if got.Steps[i].Utility != want.Steps[i].Utility {
			t.Errorf("%s: step %d utility %v != seed %v", name, i, got.Steps[i].Utility, want.Steps[i].Utility)
		}
	}
	if !gotCfg.Equal(wantCfg) {
		t.Errorf("%s: final configuration differs from seed", name)
	}
}

func TestGoldenSequentialEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 5, 11} {
		sc := makeScenario(t, seed)
		mitOpts := Options{CapUtility: sc.base.Utility(utility.Performance)}

		// Power.
		seedSt := sc.upgrade.Clone()
		seedRes, err := refPower(seedSt, sc.base, sc.neighbors, mitOpts)
		if err != nil {
			t.Fatal(err)
		}
		newSt := sc.upgrade.Clone()
		newRes, err := Power(newSt, sc.base, sc.neighbors, mitOpts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "Power", newRes, seedRes, newSt.Cfg, seedSt.Cfg)

		// Tilt.
		seedSt = sc.upgrade.Clone()
		seedRes, err = refClimb(seedSt, sc.neighbors, mitOpts, config.Change{TiltDelta: -1})
		if err != nil {
			t.Fatal(err)
		}
		newSt = sc.upgrade.Clone()
		newRes, err = Tilt(newSt, sc.neighbors, mitOpts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "Tilt", newRes, seedRes, newSt.Cfg, seedSt.Cfg)

		// NaivePower.
		seedSt = sc.upgrade.Clone()
		seedRes, err = refClimb(seedSt, sc.neighbors, mitOpts, config.Change{PowerDelta: 1})
		if err != nil {
			t.Fatal(err)
		}
		newSt = sc.upgrade.Clone()
		newRes, err = NaivePower(newSt, sc.neighbors, mitOpts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "NaivePower", newRes, seedRes, newSt.Cfg, seedSt.Cfg)

		// Joint.
		seedSt = sc.upgrade.Clone()
		seedRes, err = refJoint(seedSt, sc.base, sc.neighbors, mitOpts)
		if err != nil {
			t.Fatal(err)
		}
		newSt = sc.upgrade.Clone()
		newRes, err = Joint(newSt, sc.base, sc.neighbors, mitOpts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "Joint", newRes, seedRes, newSt.Cfg, seedSt.Cfg)

		// Anneal.
		annealOpts := AnnealOptions{Options: mitOpts, Seed: seed, Iterations: 400}
		seedSt = sc.upgrade.Clone()
		seedRes, err = refAnneal(seedSt, sc.neighbors, annealOpts)
		if err != nil {
			t.Fatal(err)
		}
		newSt = sc.upgrade.Clone()
		newRes, err = Anneal(newSt, sc.neighbors, annealOpts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "Anneal", newRes, seedRes, newSt.Cfg, seedSt.Cfg)
	}
}

func TestGoldenEqualizeEquivalence(t *testing.T) {
	for _, seed := range []int64{21, 23} {
		sc := rawScenario(t, seed)
		// 15 steps stops mid-sector on seed 21; 200 runs to convergence.
		for _, maxSteps := range []int{15, 200} {
			seedSt := sc.base.Clone()
			seedRes, err := refEqualize(seedSt, Options{MaxSteps: maxSteps})
			if err != nil {
				t.Fatal(err)
			}
			newSt := sc.base.Clone()
			newRes, err := Equalize(newSt, Options{MaxSteps: maxSteps})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, fmt.Sprintf("Equalize seed %d max %d", seed, maxSteps), newRes, seedRes, newSt.Cfg, seedSt.Cfg)
		}
	}
}

// TestWorkersBitIdentical is the Workers contract: Workers only fans a
// ScoreAll batch out over goroutines, so every strategy's steps,
// evaluation counts and final configuration are bit-identical at 1, 2
// and 4 workers, Equalize's C_before included.
func TestWorkersBitIdentical(t *testing.T) {
	sc := makeScenario(t, 5)
	raw := rawScenario(t, 21)
	mit := func(w int) Options {
		return Options{CapUtility: sc.base.Utility(utility.Performance), Workers: w}
	}
	runs := []struct {
		name   string
		from   *netmodel.State
		search func(st *netmodel.State, w int) (*Result, error)
	}{
		{"Power", sc.upgrade, func(st *netmodel.State, w int) (*Result, error) {
			return Power(st, sc.base, sc.neighbors, mit(w))
		}},
		{"Tilt", sc.upgrade, func(st *netmodel.State, w int) (*Result, error) {
			return Tilt(st, sc.neighbors, mit(w))
		}},
		{"NaivePower", sc.upgrade, func(st *netmodel.State, w int) (*Result, error) {
			return NaivePower(st, sc.neighbors, mit(w))
		}},
		{"Joint", sc.upgrade, func(st *netmodel.State, w int) (*Result, error) {
			return Joint(st, sc.base, sc.neighbors, mit(w))
		}},
		{"Equalize", raw.base, func(st *netmodel.State, w int) (*Result, error) {
			return Equalize(st, Options{MaxSteps: 200, Workers: w})
		}},
		{"Anneal", sc.upgrade, func(st *netmodel.State, w int) (*Result, error) {
			return Anneal(st, sc.neighbors, AnnealOptions{Options: mit(w), Seed: 1, Iterations: 400})
		}},
	}
	for _, r := range runs {
		var want *Result
		var wantCfg *config.Config
		for _, w := range []int{1, 2, 4} {
			st := r.from.Clone()
			res, err := r.search(st, w)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Workers != w {
				t.Errorf("%s: stats workers %d, want %d", r.name, res.Stats.Workers, w)
			}
			if w == 1 {
				want, wantCfg = res, st.Cfg
				continue
			}
			assertIdentical(t, fmt.Sprintf("%s workers=%d", r.name, w), res, want, st.Cfg, wantCfg)
		}
	}
}

// TestParallelAtLeastSequential is the Workers>1 side of the contract:
// at the machine's worker count the searches must produce valid results
// whose final utility is not below the sequential result, and whose
// recorded steps replay onto a fresh state to the same configuration.
func TestParallelAtLeastSequential(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	for _, seed := range []int64{3, 5} {
		sc := makeScenario(t, seed)
		cap := sc.base.Utility(utility.Performance)

		type run struct {
			name   string
			search func(st *netmodel.State, w int) (*Result, error)
		}
		runs := []run{
			{"Power", func(st *netmodel.State, w int) (*Result, error) {
				return Power(st, sc.base, sc.neighbors, Options{CapUtility: cap, Workers: w})
			}},
			{"Tilt", func(st *netmodel.State, w int) (*Result, error) {
				return Tilt(st, sc.neighbors, Options{CapUtility: cap, Workers: w})
			}},
			{"Joint", func(st *netmodel.State, w int) (*Result, error) {
				return Joint(st, sc.base, sc.neighbors, Options{CapUtility: cap, Workers: w})
			}},
		}
		for _, r := range runs {
			seqSt := sc.upgrade.Clone()
			seqRes, err := r.search(seqSt, 1)
			if err != nil {
				t.Fatal(err)
			}
			parSt := sc.upgrade.Clone()
			parRes, err := r.search(parSt, workers)
			if err != nil {
				t.Fatal(err)
			}
			// Workers only fans out the scoring, so no slack is allowed.
			if parRes.FinalUtility < seqRes.FinalUtility {
				t.Errorf("seed %d %s: parallel utility %v below sequential %v",
					seed, r.name, parRes.FinalUtility, seqRes.FinalUtility)
			}
			replay := sc.upgrade.Clone()
			for _, step := range parRes.Steps {
				if _, err := replay.Apply(step.Change); err != nil {
					t.Fatalf("seed %d %s: parallel step %v does not replay: %v", seed, r.name, step.Change, err)
				}
			}
			if !replay.Cfg.Equal(parSt.Cfg) {
				t.Errorf("seed %d %s: replayed steps do not reproduce the final configuration", seed, r.name)
			}
			if w := parRes.Stats.Workers; w != workers {
				t.Errorf("seed %d %s: stats workers %d, want %d", seed, r.name, w, workers)
			}
		}
	}
}

// TestParallelEqualizeConverges: Equalize at Workers 4 must reach a
// fixed point of its move set, with utility not below the sequential
// run.
func TestParallelEqualizeConverges(t *testing.T) {
	seqSc := rawScenario(t, 21)
	seqRes, err := Equalize(seqSc.base, Options{MaxSteps: 400})
	if err != nil {
		t.Fatal(err)
	}
	parSc := rawScenario(t, 21)
	parRes, err := Equalize(parSc.base, Options{MaxSteps: 400, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if parRes.FinalUtility < seqRes.FinalUtility {
		t.Errorf("parallel Equalize %v below sequential %v", parRes.FinalUtility, seqRes.FinalUtility)
	}
	// A sequential pass over the parallel result finds nothing: the run
	// converged to a fixed point.
	again, err := Equalize(parSc.base, Options{MaxSteps: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Steps) != 0 {
		t.Errorf("parallel Equalize left %d improving moves on the table", len(again.Steps))
	}
}

// TestParallelPowerReproducesSequential: ScoreAll's scores do not depend
// on the worker count, so Algorithm 1 fanned out over 4 workers must
// reproduce the single-worker steps bit for bit, on its own and inside
// Joint's alternation with the tilt climbs, and it must be
// delta-evaluated at every worker count.
func TestParallelPowerReproducesSequential(t *testing.T) {
	for _, seed := range []int64{3, 5, 11} {
		sc := makeScenario(t, seed)
		opts := Options{CapUtility: sc.base.Utility(utility.Performance)}
		parOpts := opts
		parOpts.Workers = 4
		for _, r := range []struct {
			name   string
			search func(st *netmodel.State, o Options) (*Result, error)
		}{
			{"Power", func(st *netmodel.State, o Options) (*Result, error) { return Power(st, sc.base, sc.neighbors, o) }},
			{"Joint", func(st *netmodel.State, o Options) (*Result, error) { return Joint(st, sc.base, sc.neighbors, o) }},
		} {
			seqSt := sc.upgrade.Clone()
			seqRes, err := r.search(seqSt, opts)
			if err != nil {
				t.Fatal(err)
			}
			parSt := sc.upgrade.Clone()
			parRes, err := r.search(parSt, parOpts)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, r.name, parRes, seqRes, parSt.Cfg, seqSt.Cfg)
			if parRes.Stats.DeltaEvaluations == 0 || seqRes.Stats.DeltaEvaluations == 0 {
				t.Errorf("seed %d %s: scoring must be delta-evaluated at every worker count", seed, r.name)
			}
		}
	}
}
