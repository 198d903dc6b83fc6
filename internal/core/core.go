// Package core is the Magus engine: the paper's primary contribution
// assembled into one high-level workflow (Figure 6). It wires together
// the substrates — topology, terrain, propagation, the grid analysis
// model — and exposes the operations an operator needs around a planned
// upgrade:
//
//  1. build a model of an area from operational-style data;
//  2. given the sectors going off-air, search for the best neighbor
//     power/tilt configuration C_after before the work starts
//     (proactive model-based tuning, Section 5);
//  3. plan the gradual user migration that holds the utility above
//     f(C_after) and avoids synchronized handovers (Section 6);
//  4. quantify the alternative strategies (reactive feedback baseline).
package core

import (
	"context"
	"fmt"

	"magus/internal/config"
	"magus/internal/feedback"
	"magus/internal/geo"
	"magus/internal/migrate"
	"magus/internal/modelcache"
	"magus/internal/netmodel"
	"magus/internal/propagation"
	"magus/internal/sanitize"
	"magus/internal/search"
	"magus/internal/terrain"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
)

// equalizeUnitDB is the planner's tuning granularity for C_before:
// 2 dB and 2 tilt steps. Real planning works at coarser granularity
// than Magus's 1 dB search, which is what leaves the sub-step slack the
// paper's mitigation exploits.
const equalizeUnitDB = 2

// SetupConfig describes a synthetic evaluation area. The zero value of
// optional fields selects defaults tuned for second-scale experiments.
type SetupConfig struct {
	// Seed drives every random substrate (topology, terrain).
	Seed int64
	// Class selects rural, suburban or urban planning parameters.
	Class topology.AreaClass
	// RegionSpanM is the analysis region edge in meters (default 12000;
	// the paper uses 30 km analysis regions around 10 km tuning areas, so
	// the tuning area is the region's central third).
	RegionSpanM float64
	// CellSizeM is the grid resolution (default 200; the paper uses
	// 100 m grids — set 100 for full fidelity at 4x the compute).
	CellSizeM float64
	// WithTerrain enables the synthetic terrain/clutter corrections.
	WithTerrain bool
	// FrequencyHz is the carrier frequency (default 2.635 GHz, band 7).
	FrequencyHz float64
	// EqualizeSteps bounds the planner pass that locally optimizes
	// C_before under utility.Performance at equalizeUnitDB (default 300;
	// 0 keeps the raw defaults).
	EqualizeSteps int
	// NeighborRadiusM overrides the neighbor-set radius (default
	// 2.5 x the class inter-site distance).
	NeighborRadiusM float64
	// SearchWorkers is the default candidate-scoring parallelism for
	// mitigation searches planned by this engine (see search.Options
	// .Workers). Zero or one scores each candidate batch on the calling
	// goroutine; plans are identical at every setting. The planner's
	// Equalize pass does not take this setting; its C_before would be
	// the same at any value.
	SearchWorkers int
	// Params optionally overrides the class planning parameters.
	Params *topology.ClassParams
	// ModelCache optionally supplies an on-disk snapshot cache for the
	// contributor arrays — the dominant cost of NewEngine. Nil builds
	// directly. The cache keys on the model inputs, so a stale snapshot
	// can never be served for a changed topology, SPM or grid.
	ModelCache *modelcache.Cache
}

func (c *SetupConfig) applyDefaults() {
	if c.RegionSpanM <= 0 {
		c.RegionSpanM = 12000
	}
	if c.CellSizeM <= 0 {
		c.CellSizeM = 200
	}
	if c.FrequencyHz <= 0 {
		c.FrequencyHz = 2.635e9
	}
	if c.EqualizeSteps < 0 {
		c.EqualizeSteps = 0
	}
}

// Engine is a ready-to-plan Magus instance for one area.
type Engine struct {
	Net     *topology.Network
	Terrain *terrain.Map // nil without terrain
	SPM     *propagation.SPM
	Model   *netmodel.Model
	// Before is the planner-optimized C_before state with the user
	// distribution assigned.
	Before *netmodel.State

	cfg        SetupConfig
	tuningArea geo.Rect

	// Sanitation state of the last UseDataset call (see dataset.go):
	// quarantined sectors are excluded from plan neighbor sets.
	sanitation  *sanitize.Report
	quarantined map[int]bool
}

// NewEngine synthesizes an area per cfg and prepares the baseline.
func NewEngine(cfg SetupConfig) (*Engine, error) {
	cfg.applyDefaults()
	region := geo.NewRectCentered(geo.Point{}, cfg.RegionSpanM, cfg.RegionSpanM)

	net, err := topology.Generate(topology.GenConfig{
		Seed:   cfg.Seed,
		Class:  cfg.Class,
		Bounds: region,
		Params: cfg.Params,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	var terr *terrain.Map
	if cfg.WithTerrain {
		terr, err = terrain.Generate(terrain.Config{
			Seed:         cfg.Seed + 1,
			Bounds:       region.Expand(1000),
			UrbanCenters: []geo.Point{region.Center()},
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	spm, err := propagation.NewSPM(cfg.FrequencyHz, terr)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if terr != nil {
		// Full diffraction sampling is expensive at region scale; clutter
		// corrections carry most of the spatial irregularity.
		spm.DiffractionWeight = 0
	}

	model, err := cfg.ModelCache.LoadOrBuild(net, spm, region, netmodel.Params{CellSizeM: cfg.CellSizeM})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	before := model.NewState(config.New(net))
	before.AssignUsersUniform()
	if cfg.EqualizeSteps > 0 {
		// Rural planning is power-limited: planners already spend the
		// hardware budget to cover large cells ("use up most of the
		// available power", Section 6), so the planner may exceed the
		// planned default. Dense-area planning is interference-limited:
		// the planned power sits below the hardware rating, and the
		// headroom above it is the emergency margin Magus spends.
		if _, err := search.Equalize(before, search.Options{
			MaxSteps:          cfg.EqualizeSteps,
			Util:              utility.Performance,
			PowerUnitDB:       equalizeUnitDB,
			TiltUnit:          equalizeUnitDB,
			CapAtDefaultPower: true,
		}); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		// Re-derive the user distribution from the planned serving map.
		before.AssignUsersUniform()
	}
	before = freshBefore(before)

	return &Engine{
		Net:        net,
		Terrain:    terr,
		SPM:        spm,
		Model:      model,
		Before:     before,
		cfg:        cfg,
		tuningArea: geo.NewRectCentered(region.Center(), cfg.RegionSpanM/3, cfg.RegionSpanM/3),
	}, nil
}

// freshBefore rebuilds an engine's C_before from its configuration, so
// that it holds what NewState computes rather than what a chain of
// incremental updates left behind. C_before is always fresh: window
// sessions copy it instead of rebuilding it (netmodel.State.CloneOn),
// and the copy of a fresh state is the fresh state.
func freshBefore(before *netmodel.State) *netmodel.State {
	return before.Model.NewState(before.Cfg)
}

// MustNewEngine is NewEngine that panics on error.
func MustNewEngine(cfg SetupConfig) *Engine {
	e, err := NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// TuningArea returns the inner area whose sectors are subject to
// upgrades.
func (e *Engine) TuningArea() geo.Rect { return e.tuningArea }

// NeighborRadius returns the radius used to build the neighbor set B:
// by default 1.6 x the inter-site distance, i.e. the first neighbor tier
// plus co-sited sectors — "an offline base station may have tens of
// neighbors" (Section 1), not the whole market.
func (e *Engine) NeighborRadius() float64 {
	if e.cfg.NeighborRadiusM > 0 {
		return e.cfg.NeighborRadiusM
	}
	return 1.6 * e.Net.Params.InterSiteDistanceM
}

// Method selects the tuning strategy of Table 1.
type Method int

const (
	// PowerOnly is Algorithm 1 over transmit powers.
	PowerOnly Method = iota
	// TiltOnly is the greedy per-neighbor uptilt search.
	TiltOnly
	// Joint is tilt-tuning followed by power-tuning.
	Joint
	// NaiveBaseline is the per-neighbor power climb Figure 13 compares
	// against.
	NaiveBaseline
	// Annealed is a simulated-annealing search over the neighbors'
	// powers and tilts — the "more sophisticated version of Magus" the
	// paper speculates could escape the heuristic's local optima in
	// urban areas (Section 6).
	Annealed
)

// String names the method as in Table 1.
func (m Method) String() string {
	switch m {
	case PowerOnly:
		return "power-tuning"
	case TiltOnly:
		return "tilt-tuning"
	case Joint:
		return "joint"
	case NaiveBaseline:
		return "naive"
	case Annealed:
		return "annealed"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Plan is a computed upgrade mitigation.
type Plan struct {
	// Scenario and Method identify the experiment cell.
	Scenario upgrade.Scenario
	Method   Method
	// Targets are the sectors going off-air; Neighbors the tuned set B.
	Targets   []int
	Neighbors []int
	// Upgrade is the C_upgrade state (targets off, nothing tuned);
	// After is the C_after state found by the search. Both carry the
	// engine's fixed user distribution.
	Upgrade *netmodel.State
	After   *netmodel.State
	// UtilityBefore/Upgrade/After are f(C_before), f(C_upgrade),
	// f(C_after) under the plan's utility function.
	UtilityBefore  float64
	UtilityUpgrade float64
	UtilityAfter   float64
	// Search reports the accepted steps and evaluation count.
	Search *search.Result
	// Util is the objective the plan optimized.
	Util utility.Func
	// Sanitation carries the engine's operational-data report when the
	// plan was computed from an ingested dataset (see Engine.UseDataset);
	// nil on purely synthetic engines.
	Sanitation *sanitize.Report

	engine *Engine
}

// RecoveryRatio is the paper's Formula 7 for this plan.
func (p *Plan) RecoveryRatio() float64 {
	return utility.RecoveryRatio(p.UtilityBefore, p.UtilityUpgrade, p.UtilityAfter)
}

// Mitigate plans the proactive model-based mitigation for an upgrade
// scenario: it derives the target sectors, evaluates C_upgrade, runs the
// selected search for C_after, and returns the complete plan.
func (e *Engine) Mitigate(sc upgrade.Scenario, method Method, util utility.Func) (*Plan, error) {
	return e.MitigateContext(context.Background(), sc, method, util)
}

// MitigateContext is Mitigate bounded by a context: the underlying
// search checks ctx every iteration, so a cancelled or expired context
// abandons the plan promptly and returns the context's error.
func (e *Engine) MitigateContext(ctx context.Context, sc upgrade.Scenario, method Method, util utility.Func) (*Plan, error) {
	targets, err := upgrade.Targets(e.Net, sc, e.tuningArea)
	if err != nil {
		return nil, err
	}
	return e.MitigateTargetsContext(ctx, sc, method, util, targets)
}

// MitigateTargets is Mitigate with an explicit target sector set.
func (e *Engine) MitigateTargets(sc upgrade.Scenario, method Method, util utility.Func, targets []int) (*Plan, error) {
	return e.MitigateTargetsContext(context.Background(), sc, method, util, targets)
}

// MitigateTargetsContext is MitigateTargets bounded by a context (see
// MitigateContext).
func (e *Engine) MitigateTargetsContext(ctx context.Context, sc upgrade.Scenario, method Method, util utility.Func, targets []int) (*Plan, error) {
	if targets == nil {
		targets = []int{} // non-nil: the request derives targets only when unset
	}
	return e.MitigatePlan(MitigateRequest{
		Ctx:      ctx,
		Scenario: sc,
		Method:   method,
		Util:     util,
		Targets:  targets,
	})
}

// MitigateRequest is the full parameter set of a mitigation plan. The
// shorthand Mitigate* methods construct one; callers that need the
// per-request knobs (explicit targets, worker override) build it
// directly.
type MitigateRequest struct {
	// Ctx bounds the search (nil means background).
	Ctx context.Context
	// Scenario and Method select the upgrade and tuning strategy.
	Scenario upgrade.Scenario
	Method   Method
	// Util is the objective (default utility.Performance).
	Util utility.Func
	// Targets are the off-air sectors; nil derives them from the
	// scenario over the engine's tuning area.
	Targets []int
	// Workers overrides the engine's SearchWorkers for this plan:
	// 0 inherits, 1 scores on the calling goroutine, >1 scores each
	// candidate batch on that many goroutines over the one shared state.
	// The plan is the same at every setting (see search.Options.Workers).
	Workers int
	// Deprecated: ignored. Candidates are always scored with the one
	// exact kernel; the field stays so existing callers still compile.
	FixedPoint bool
	// AnnealSeed seeds the Annealed method's private rand.Rand, so
	// annealing runs are reproducible per request and race-free under
	// parallel campaigns (0 selects the historical default of 1).
	AnnealSeed int64
}

// MitigatePlan plans the proactive mitigation described by req.
func (e *Engine) MitigatePlan(req MitigateRequest) (*Plan, error) {
	ctx := req.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	sc, method, util, targets := req.Scenario, req.Method, req.Util, req.Targets
	if targets == nil {
		var err error
		targets, err = upgrade.Targets(e.Net, sc, e.tuningArea)
		if err != nil {
			return nil, err
		}
	}
	workers := req.Workers
	if workers <= 0 {
		workers = e.cfg.SearchWorkers
	}
	if util.U == nil {
		util = utility.Performance
	}
	upgradeState := e.Before.Clone()
	for _, tg := range targets {
		if _, err := upgradeState.Apply(config.Change{Sector: tg, TurnOff: true}); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	neighbors := search.SortByDistanceTo(upgradeState,
		e.Net.NeighborSectors(targets, e.NeighborRadius()), targets)
	if len(e.quarantined) > 0 {
		// Quarantined sectors have untrustworthy data: never tune them.
		kept := neighbors[:0]
		for _, b := range neighbors {
			if !e.quarantined[b] {
				kept = append(kept, b)
			}
		}
		neighbors = kept
	}

	after := upgradeState.Clone()
	// Cap the search at f(C_before): mitigation recovers the loss, it
	// does not chase utility beyond normal operation.
	utilityBefore := e.Before.Utility(util)
	opts := search.Options{Util: util, CapUtility: utilityBefore, Ctx: ctx, Workers: workers}
	var res *search.Result
	var err error
	switch method {
	case PowerOnly:
		res, err = search.Power(after, e.Before, neighbors, opts)
	case TiltOnly:
		res, err = search.Tilt(after, neighbors, opts)
	case Joint:
		res, err = search.Joint(after, e.Before, neighbors, opts)
	case NaiveBaseline:
		res, err = search.NaivePower(after, neighbors, opts)
	case Annealed:
		seed := req.AnnealSeed
		if seed == 0 {
			seed = 1
		}
		res, err = search.Anneal(after, neighbors, search.AnnealOptions{
			Options: opts,
			Seed:    seed,
		})
	default:
		return nil, fmt.Errorf("core: unknown method %d", int(method))
	}
	if err != nil {
		return nil, err
	}

	return &Plan{
		Scenario:       sc,
		Method:         method,
		Targets:        targets,
		Neighbors:      neighbors,
		Upgrade:        upgradeState,
		After:          after,
		UtilityBefore:  utilityBefore,
		UtilityUpgrade: upgradeState.Utility(util),
		UtilityAfter:   res.FinalUtility,
		Search:         res,
		Util:           util,
		Sanitation:     e.sanitation,
		engine:         e,
	}, nil
}

// GradualMigration computes the synchronized-handover-minimizing
// migration schedule for the plan (Section 6, Figure 11).
func (p *Plan) GradualMigration(opts migrate.Options) (*migrate.Plan, error) {
	if opts.Util.U == nil {
		opts.Util = p.Util
	}
	return migrate.Gradual(p.engine.Before, p.After, p.Targets, opts)
}

// OneShotMigration computes the direct-jump alternative for comparison.
func (p *Plan) OneShotMigration(opts migrate.Options) (*migrate.Plan, error) {
	if opts.Util.U == nil {
		opts.Util = p.Util
	}
	return migrate.OneShot(p.engine.Before, p.After, p.Targets, opts)
}

// ReactiveBaseline simulates the reactive feedback-based strategy for
// the plan's upgrade (Figure 12): tuning starts only after the targets
// go down and is driven by per-step measurements.
func (p *Plan) ReactiveBaseline(mode feedback.Mode, opts feedback.Options) (*feedback.Result, error) {
	if opts.Util.U == nil {
		opts.Util = p.Util
	}
	work := p.Upgrade.Clone()
	return feedback.Reactive(work, p.Neighbors, mode, opts)
}
