package search

import (
	"math"
	"math/rand"

	"magus/internal/config"
	"magus/internal/netmodel"
)

// AnnealOptions tune the simulated-annealing search.
type AnnealOptions struct {
	// Options embeds the common search knobs (utility, caps, Workers).
	// The Metropolis chain is sequential (each proposal's acceptance
	// depends on the previous state and the shared RNG stream), so each
	// proposal is a one-move batch and Workers changes nothing.
	Options
	// Seed drives the proposal sequence; equal seeds reproduce runs.
	Seed int64
	// Iterations is the number of proposals (default 2000).
	Iterations int
}

// annealStartTemp and annealEndTemp bound the geometric cooling
// schedule, expressed in utility units.
const (
	annealStartTemp = 2
	annealEndTemp   = 0.01
)

func (o *AnnealOptions) applyDefaults() {
	o.Options.applyDefaults()
	if o.Iterations <= 0 {
		o.Iterations = 2000
	}
}

// Anneal runs simulated annealing over the neighbors' power and tilt
// settings — the "more sophisticated version of Magus" the paper
// speculates about for urban areas where the greedy heuristic "may get
// stuck at a local optima" (Section 6). Proposals are single-sector
// power (+-1 dB) or tilt (+-1 step) moves; worsening moves are accepted
// with the Metropolis probability under a geometric cooling schedule.
// The best configuration seen is restored before returning, so the
// result is never worse than the starting point. Each proposal is priced
// read-only by the engine's scorer and committed on acceptance.
func Anneal(st *netmodel.State, neighbors []int, opts AnnealOptions) (*Result, error) {
	opts.applyDefaults()
	res := &Result{}
	if len(neighbors) == 0 {
		res.FinalUtility = st.Utility(opts.Util)
		return res, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	e := opts.engine(st)
	best := e.Current()
	bestCfg := st.Cfg.Clone()
	cooling := math.Pow(annealEndTemp/annealStartTemp, 1/float64(opts.Iterations))
	temp := float64(annealStartTemp)

	for i := 0; i < opts.Iterations; i++ {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		if opts.CapUtility > 0 && e.Current() >= opts.CapUtility {
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
		scores, err := e.ScoreAll([]config.Change{mv})
		if err != nil {
			return nil, err
		}
		if scores[0].Applied.IsZero() {
			temp *= cooling
			continue
		}
		res.Evaluations++
		// Short-circuit order matters: the Metropolis draw consumes the
		// RNG stream only for worsening moves, part of the per-seed
		// reproducibility contract.
		u := scores[0].Utility
		if u >= e.Current() || rng.Float64() < math.Exp((u-e.Current())/temp) {
			applied, current, err := e.Commit(mv)
			if err != nil {
				return nil, err
			}
			if current > best {
				best = current
				bestCfg = st.Cfg.Clone()
				res.Steps = append(res.Steps, Step{Change: applied, Utility: current})
			}
		}
		temp *= cooling
	}

	// Restore the best configuration visited.
	diff, err := st.Cfg.Diff(bestCfg)
	if err != nil {
		return nil, err
	}
	for _, ch := range diff {
		if _, _, err := e.Commit(ch); err != nil {
			return nil, err
		}
	}
	res.FinalUtility = e.Current()
	res.Stats = e.Snapshot()
	return res, nil
}
