package experiments

import (
	"fmt"
	"strings"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/stats"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// Figure13 is the improvement-ratio CDF of the paper's Figure 13:
// Magus's Algorithm 1 recovery divided by the naive per-neighbor climb's
// recovery, across all (class, seed, scenario) combinations.
type Figure13 struct {
	// Ratios holds one improvement ratio per scenario evaluated.
	Ratios []float64
	// CDF is the empirical distribution of Ratios.
	CDF *stats.CDF
	// Summary reports mean/min/max (the paper: never below 0.9, average
	// 1.21, max 3.87, Magus at least as good in 81% of scenarios).
	Summary stats.Summary
	// FractionAtLeastNaive is the share of scenarios with ratio >= 1.
	FractionAtLeastNaive float64
	// Skipped counts scenarios where neither strategy had anything to
	// recover (excluded from the CDF, mirroring the paper's ratio
	// definition).
	Skipped int
}

// Figure13Options configure the sweep.
type Figure13Options struct {
	// Seeds are the per-class replicates (default {1, 2, 3}, giving the
	// paper's 27 scenarios across 3 classes x 3 scenarios).
	Seeds []int64
}

// RunFigure13 sweeps every scenario and computes improvement ratios.
func RunFigure13(env *campaign.Env, opts Figure13Options) (*Figure13, error) {
	if len(opts.Seeds) == 0 {
		opts.Seeds = []int64{1, 2, 3}
	}
	out := &Figure13{}
	if err := WarmEngines(env, opts.Seeds); err != nil {
		return nil, fmt.Errorf("figure13: %w", err)
	}
	for _, class := range AllClasses {
		for _, seed := range opts.Seeds {
			engine, err := env.Build(seed, campaign.DefaultAreaSpec(class))
			if err != nil {
				return nil, fmt.Errorf("figure13 %v seed %d: %w", class, seed, err)
			}
			for _, sc := range upgrade.AllScenarios {
				magus, err := engine.Mitigate(sc, core.PowerOnly, utility.Performance)
				if err != nil {
					return nil, err
				}
				naive, err := engine.Mitigate(sc, core.NaiveBaseline, utility.Performance)
				if err != nil {
					return nil, err
				}
				mr := magus.RecoveryRatio()
				nr := naive.RecoveryRatio()
				if nr <= 1e-6 {
					// Neither recovers anything meaningful (or there was
					// nothing to recover): the ratio is undefined.
					if mr <= 1e-6 {
						out.Skipped++
						continue
					}
					// Magus recovered where naive recovered nothing;
					// record a capped large ratio.
					out.Ratios = append(out.Ratios, 4)
					continue
				}
				out.Ratios = append(out.Ratios, mr/nr)
			}
		}
	}
	out.CDF = stats.NewCDF(out.Ratios)
	out.Summary = stats.Summarize(out.Ratios)
	atLeast := 0
	for _, r := range out.Ratios {
		if r >= 1-1e-9 {
			atLeast++
		}
	}
	if len(out.Ratios) > 0 {
		out.FractionAtLeastNaive = float64(atLeast) / float64(len(out.Ratios))
	}
	return out, nil
}

// String prints the summary and an ASCII CDF.
func (f *Figure13) String() string {
	var b strings.Builder
	b.WriteString("Figure 13: improvement ratio of Magus (Algorithm 1) over the naive approach\n")
	fmt.Fprintf(&b, "  scenarios: %d evaluated, %d skipped (nothing to recover)\n",
		len(f.Ratios), f.Skipped)
	fmt.Fprintf(&b, "  mean=%.2f min=%.2f max=%.2f\n", f.Summary.Mean, f.Summary.Min, f.Summary.Max)
	fmt.Fprintf(&b, "  Magus at least as good as naive in %.0f%% of scenarios\n",
		100*f.FractionAtLeastNaive)
	b.WriteString("  CDF:\n")
	b.WriteString(indent(f.CDF.AsciiPlot(60, 10), "  "))
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
