package experiments

import (
	"fmt"
	"strings"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// Table1Methods are the three tuning strategies of Table 1, in row
// order.
var Table1Methods = []core.Method{core.PowerOnly, core.TiltOnly, core.Joint}

// Table1Options configure the Table 1 reproduction.
type Table1Options struct {
	// Seeds are the per-class area replicates (the paper studies 3
	// areas per class; default {1, 2, 3}).
	Seeds []int64
	// Methods defaults to Table1Methods.
	Methods []core.Method
}

func (o *Table1Options) applyDefaults() {
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	if len(o.Methods) == 0 {
		o.Methods = Table1Methods
	}
}

// Table1 is the recovery-ratio matrix of the paper's Table 1: mean
// recovery per (area class, upgrade scenario, tuning method).
type Table1 struct {
	// Recovery[class][scenario][method] is the mean recovery ratio over
	// the replicate areas.
	Recovery map[topology.AreaClass]map[upgrade.Scenario]map[core.Method]float64
	// Scenarios and Methods give the column/row orders used by String.
	Scenarios []upgrade.Scenario
	Methods   []core.Method
}

// RunTable1 reproduces Table 1: for every class, replicate seed and
// upgrade scenario, run each tuning method and average the recovery
// ratios (Formula 7).
func RunTable1(env *campaign.Env, opts Table1Options) (*Table1, error) {
	opts.applyDefaults()
	out := &Table1{
		Recovery:  make(map[topology.AreaClass]map[upgrade.Scenario]map[core.Method]float64),
		Scenarios: upgrade.AllScenarios,
		Methods:   opts.Methods,
	}
	if err := WarmEngines(env, opts.Seeds); err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	for _, class := range AllClasses {
		out.Recovery[class] = make(map[upgrade.Scenario]map[core.Method]float64)
		for _, sc := range upgrade.AllScenarios {
			out.Recovery[class][sc] = make(map[core.Method]float64)
		}
		for _, seed := range opts.Seeds {
			engine, err := env.Build(seed, campaign.DefaultAreaSpec(class))
			if err != nil {
				return nil, fmt.Errorf("table1 %v seed %d: %w", class, seed, err)
			}
			for _, sc := range upgrade.AllScenarios {
				for _, method := range opts.Methods {
					plan, err := engine.Mitigate(sc, method, utility.Performance)
					if err != nil {
						return nil, fmt.Errorf("table1 %v seed %d %v %v: %w",
							class, seed, sc, method, err)
					}
					out.Recovery[class][sc][method] += plan.RecoveryRatio() / float64(len(opts.Seeds))
				}
			}
		}
	}
	return out, nil
}

// Cell returns one recovery ratio.
func (t *Table1) Cell(class topology.AreaClass, sc upgrade.Scenario, m core.Method) float64 {
	return t.Recovery[class][sc][m]
}

// MeanByClass averages a method's recovery over scenarios for a class.
func (t *Table1) MeanByClass(class topology.AreaClass, m core.Method) float64 {
	sum := 0.0
	for _, sc := range t.Scenarios {
		sum += t.Recovery[class][sc][m]
	}
	return sum / float64(len(t.Scenarios))
}

// String prints the table in the paper's layout: columns are
// (class x scenario), rows are tuning methods.
func (t *Table1) String() string {
	var b strings.Builder
	b.WriteString("Table 1: recovery ratio by area class, upgrade scenario and tuning type\n")
	fmt.Fprintf(&b, "%-14s", "Tuning")
	for _, class := range AllClasses {
		for _, sc := range t.Scenarios {
			fmt.Fprintf(&b, " %9s", fmt.Sprintf("%s%s", shortClass(class), sc.Short()))
		}
	}
	b.WriteByte('\n')
	for _, m := range t.Methods {
		fmt.Fprintf(&b, "%-14s", m.String())
		for _, class := range AllClasses {
			for _, sc := range t.Scenarios {
				fmt.Fprintf(&b, " %8.1f%%", 100*t.Recovery[class][sc][m])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func shortClass(c topology.AreaClass) string {
	switch c {
	case topology.Rural:
		return "rur"
	case topology.Suburban:
		return "sub"
	case topology.Urban:
		return "urb"
	default:
		return "?"
	}
}
