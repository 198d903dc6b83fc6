package waveplan

import (
	"fmt"
	"math"
	"sort"

	"magus/internal/core"
	"magus/internal/migrate"
	"magus/internal/runbook"
	"magus/internal/simwindow"
	"magus/internal/upgrade"
)

// EvaluateAssignment evaluates a fixed season exactly: byWave holds the
// sector IDs darkened in each calendar slot (empty slots are skipped).
// Every executed wave gets a full mitigation plan (the paper's
// f(C_after) search with the wave as explicit targets), a gradual
// migration, and a WaveMeta-annotated runbook; with Options.Replay each
// wave's runbook is additionally played through a simwindow, and a
// floor breach (Options.HaltBelowTicks consecutive below-floor ticks)
// halts the season: the breaching wave is marked Halted, its rollback
// runbook is emitted, and the remaining waves are Cancelled without
// evaluation. Used directly for baselines (see RoundRobin); Plan calls
// it on the annealed assignment.
func EvaluateAssignment(e *core.Engine, byWave [][]int, opts Options) (*Result, error) {
	opts.applyDefaults()
	var sectors []int
	for _, ws := range byWave {
		sectors = append(sectors, ws...)
	}
	sort.Ints(sectors)
	if len(sectors) == 0 {
		return nil, fmt.Errorf("waveplan: empty season")
	}

	c := opts.Constraints
	if c.OverlapThreshold <= 0 {
		c.OverlapThreshold = 0.15
	}
	if c.MarginDB <= 0 {
		c.MarginDB = 6
	}
	g := BuildConflictGraph(e.Model, sectors, c.OverlapThreshold, c.MarginDB)
	c.applyDefaults(len(sectors), g.MaxDegree())
	deltas, uBefore := offDeltas(e, sectors, opts.Util)

	res := &Result{
		Sectors:           sectors,
		Constraints:       c,
		Seed:              opts.Seed,
		Method:            opts.Method.String(),
		Objective:         opts.Util.Name,
		UtilityBefore:     uBefore,
		ConflictEdges:     g.Edges(),
		MaxConflictDegree: g.MaxDegree(),
		EstimatedMin:      math.Inf(1),
		MinWaveUtility:    math.Inf(1),
	}

	executed := 0
	sumAfter := 0.0
	for slot := 0; slot < len(byWave); slot++ {
		if len(byWave[slot]) == 0 {
			continue
		}
		targets := append([]int(nil), byWave[slot]...)
		sort.Ints(targets)
		wave := Wave{
			Wave:             len(res.Waves) + 1,
			Slot:             slot,
			Sectors:          targets,
			EstimatedUtility: uBefore,
		}
		for _, s := range targets {
			wave.EstimatedUtility += deltas[s]
		}
		if wave.EstimatedUtility < res.EstimatedMin {
			res.EstimatedMin = wave.EstimatedUtility
		}

		if res.Halted {
			wave.Cancelled = true
			res.Waves = append(res.Waves, wave)
			counters.wavesCancelled.Add(1)
			continue
		}

		scenario := upgrade.SingleSector
		if len(targets) > 1 {
			scenario = upgrade.FullSite
		}
		plan, err := e.MitigatePlan(core.MitigateRequest{
			Ctx:        opts.Ctx,
			Scenario:   scenario,
			Method:     opts.Method,
			Util:       opts.Util,
			Targets:    targets,
			Workers:    opts.Workers,
			AnnealSeed: opts.Seed + int64(wave.Wave),
		})
		if err != nil {
			return nil, fmt.Errorf("waveplan: wave %d: %w", wave.Wave, err)
		}
		mig, err := plan.GradualMigration(migrate.Options{Util: opts.Util})
		if err != nil {
			return nil, fmt.Errorf("waveplan: wave %d migration: %w", wave.Wave, err)
		}
		rb, err := runbook.Build(plan, mig)
		if err != nil {
			return nil, fmt.Errorf("waveplan: wave %d runbook: %w", wave.Wave, err)
		}
		wave.UtilityUpgrade = plan.UtilityUpgrade
		wave.UtilityAfter = plan.UtilityAfter
		wave.Recovery = plan.RecoveryRatio()
		wave.Handovers = mig.TotalHandovers
		wave.Semantics = "stopping"
		if wave.Recovery >= opts.RollingRecovery {
			wave.Semantics = "rolling"
		}
		rb.Wave = &runbook.WaveMeta{
			Wave:      wave.Wave,
			Slot:      slot,
			Semantics: wave.Semantics,
			HaltFloor: mig.AfterUtility,
		}
		wave.Runbook = rb
		executed++
		counters.wavesPlanned.Add(1)
		sumAfter += wave.UtilityAfter
		if wave.UtilityAfter < res.MinWaveUtility {
			res.MinWaveUtility = wave.UtilityAfter
		}
		res.TotalHandovers += wave.Handovers

		if opts.Replay {
			sim, err := simwindow.New(e.Before, rb, simwindow.Config{
				Seed:                opts.Seed + int64(wave.Wave),
				Ticks:               opts.ReplayTicks,
				Util:                opts.Util,
				Faults:              opts.ReplayFaults,
				HaltAfterBelowTicks: opts.HaltBelowTicks,
				Workers:             opts.Workers,
				Ctx:                 opts.Ctx,
			})
			if err != nil {
				return nil, fmt.Errorf("waveplan: wave %d replay: %w", wave.Wave, err)
			}
			out, err := sim.Run()
			if err != nil {
				return nil, fmt.Errorf("waveplan: wave %d replay: %w", wave.Wave, err)
			}
			counters.replays.Add(1)
			sum := out.Summary
			wave.Replay = &sum
			if sum.Halted {
				wave.Halted = true
				res.Halted = true
				res.HaltWave = wave.Wave
				res.HaltReason = fmt.Sprintf(
					"replay breached the utility floor for %d consecutive ticks at tick %d",
					opts.HaltBelowTicks, sum.HaltTick)
				res.Rollback = runbook.BuildRollback(rb, res.HaltReason)
			}
		}
		res.Waves = append(res.Waves, wave)
	}

	if executed > 0 {
		res.MeanWaveUtility = sumAfter / float64(executed)
	}
	counters.seasonsPlanned.Add(1)
	if res.Halted {
		counters.seasonsHalted.Add(1)
	}
	return res, nil
}

// String renders the season as an operator-readable table.
func (r *Result) String() string {
	var b []byte
	b = fmt.Appendf(b, "upgrade season: %d sectors, %d waves over %d slots (%d conflict edges, max degree %d)\n",
		len(r.Sectors), len(r.Waves), r.Constraints.MaxWaves, r.ConflictEdges, r.MaxConflictDegree)
	b = fmt.Appendf(b, "objective %s via %s: f(C_before) %.1f, season min f(C_after) %.1f (mean %.1f), %.0f handovers\n",
		r.Objective, r.Method, r.UtilityBefore, r.MinWaveUtility, r.MeanWaveUtility, r.TotalHandovers)
	for _, w := range r.Waves {
		switch {
		case w.Cancelled:
			b = fmt.Appendf(b, "  wave %d (slot %d): CANCELLED  sectors %v\n", w.Wave, w.Slot, w.Sectors)
		case w.Halted:
			b = fmt.Appendf(b, "  wave %d (slot %d): HALTED     sectors %v  f(C_after) %.1f\n",
				w.Wave, w.Slot, w.Sectors, w.UtilityAfter)
		default:
			b = fmt.Appendf(b, "  wave %d (slot %d): %-9s sectors %v  f(C_after) %.1f  recovery %.1f%%\n",
				w.Wave, w.Slot, w.Semantics, w.Sectors, w.UtilityAfter, 100*w.Recovery)
		}
	}
	if r.Halted {
		b = fmt.Appendf(b, "SEASON HALTED at wave %d: %s; rollback runbook emitted (%d steps)\n",
			r.HaltWave, r.HaltReason, len(r.Rollback.Steps))
	}
	return string(b)
}
