package search

import (
	"fmt"

	"magus/internal/config"
	"magus/internal/netmodel"
)

// BruteForcePower exhaustively searches per-sector power levels for a
// small sector set and commits the best configuration to st. levels[i]
// lists the absolute powers (dBm) tried for sectors[i]. The search space
// is capped at maxCombos (default 1e6) to keep it honest about why the
// paper needs a heuristic. Combinations are enumerated one after
// another on st in odometer order (first sector fastest), and the
// earliest of equal-utility winners is kept; it is the exhaustive
// oracle the heuristics are checked against, so Options.Workers is not
// used.
func BruteForcePower(st *netmodel.State, sectors []int, levels [][]float64, opts Options, maxCombos int) (*Result, error) {
	opts.applyDefaults()
	if len(sectors) != len(levels) {
		return nil, fmt.Errorf("search: %d sectors but %d level sets", len(sectors), len(levels))
	}
	if maxCombos <= 0 {
		maxCombos = 1_000_000
	}
	combos := 1
	for _, ls := range levels {
		if len(ls) == 0 {
			return nil, fmt.Errorf("search: empty level set")
		}
		combos *= len(ls)
		if combos > maxCombos {
			return nil, fmt.Errorf("search: %d combinations exceed cap %d", combos, maxCombos)
		}
	}

	res := &Result{}
	startUtility := st.Utility(opts.Util)
	bestUtility := startUtility
	var bestPowers []float64

	original := make([]float64, len(sectors))
	for i, b := range sectors {
		original[i] = st.Cfg.PowerDbm(b)
	}

	idx := make([]int, len(sectors))
	for {
		// Apply current combination.
		for i, b := range sectors {
			delta := levels[i][idx[i]] - st.Cfg.PowerDbm(b)
			if delta != 0 {
				if _, err := st.Apply(config.Change{Sector: b, PowerDelta: delta}); err != nil {
					return nil, err
				}
			}
		}
		res.Evaluations++
		if u := st.Utility(opts.Util); u > bestUtility {
			bestUtility = u
			bestPowers = make([]float64, len(sectors))
			for i, b := range sectors {
				bestPowers[i] = st.Cfg.PowerDbm(b)
			}
		}
		// Advance the odometer.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(levels[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}
	res.Stats.MovesProposed = int64(res.Evaluations)
	res.Stats.FullEvaluations = int64(res.Evaluations)
	res.Stats.Workers = 1

	// Commit the winner (or restore the original when nothing improved).
	target := bestPowers
	if target == nil {
		target = original
	}
	for i, b := range sectors {
		delta := target[i] - st.Cfg.PowerDbm(b)
		if delta != 0 {
			applied, err := st.Apply(config.Change{Sector: b, PowerDelta: delta})
			if err != nil {
				return nil, err
			}
			if bestPowers != nil {
				res.Steps = append(res.Steps, Step{Change: applied})
				res.Stats.MovesAccepted++
			}
		}
	}
	res.FinalUtility = st.Utility(opts.Util)
	if len(res.Steps) > 0 {
		res.Steps[len(res.Steps)-1].Utility = res.FinalUtility
	}
	return res, nil
}
