// Package magus is a reproduction of "Magus: Minimizing Cellular
// Service Disruption during Network Upgrades" (Xu et al., ACM CoNEXT
// 2015): a proactive, model-based system that re-tunes the transmit
// power and antenna tilt of neighboring cellular sectors before a
// planned upgrade takes a base station off-air, so that users migrate
// early, coverage and performance losses are partially recovered, and
// synchronized handovers are avoided.
//
// The package is a façade over the internal implementation:
//
//   - NewEngine builds a complete synthetic market (topology, terrain,
//     path loss, grid analysis model, planner-optimized baseline);
//   - Engine.Mitigate plans the best neighbor configuration C_after for
//     an upgrade scenario using the paper's search algorithms;
//   - Plan.GradualMigration schedules the stepwise user migration whose
//     utility never drops below f(C_after);
//   - Plan.ReactiveBaseline quantifies the reactive feedback-based
//     alternative the paper compares against.
//
// See the examples directory for runnable walkthroughs and DESIGN.md for
// the system inventory.
package magus

import (
	"encoding/json"
	"fmt"
	"os"

	"magus/internal/core"
	"magus/internal/feedback"
	"magus/internal/hybrid"
	"magus/internal/loadbalance"
	"magus/internal/migrate"
	"magus/internal/multicarrier"
	"magus/internal/netmodel"
	"magus/internal/outageplan"
	"magus/internal/runbook"
	"magus/internal/sanitize"
	"magus/internal/signaling"
	"magus/internal/simwindow"
	"magus/internal/topology"
	"magus/internal/upgrade"
	"magus/internal/utility"
	"magus/internal/waveplan"
)

// Engine is a ready-to-plan Magus instance for one market area.
type Engine = core.Engine

// SetupConfig describes the synthetic market an Engine is built from.
type SetupConfig = core.SetupConfig

// Plan is a computed upgrade mitigation: targets, neighbors, the tuned
// C_after configuration and the recovery accounting.
type Plan = core.Plan

// Method selects the tuning strategy (power, tilt, joint, or the naive
// baseline).
type Method = core.Method

// Tuning methods, as in the paper's Table 1.
const (
	PowerOnly     = core.PowerOnly
	TiltOnly      = core.TiltOnly
	Joint         = core.Joint
	NaiveBaseline = core.NaiveBaseline
	Annealed      = core.Annealed
)

// AreaClass categorizes the base-station density of a market area.
type AreaClass = topology.AreaClass

// Area classes.
const (
	Rural    = topology.Rural
	Suburban = topology.Suburban
	Urban    = topology.Urban
)

// Scenario identifies a planned-upgrade scenario (Figure 9).
type Scenario = upgrade.Scenario

// Upgrade scenarios.
const (
	SingleSector = upgrade.SingleSector
	FullSite     = upgrade.FullSite
	FourCorners  = upgrade.FourCorners
)

// UtilityFunc is a per-UE utility function; the overall network utility
// is its UE-weighted sum.
type UtilityFunc = utility.Func

// Built-in utility functions (Section 5).
var (
	// Performance is the log-rate proportional-fair utility (Formula 6).
	Performance = utility.Performance
	// Coverage counts served UEs (Formula 5).
	Coverage = utility.Coverage
)

// MigrationOptions tune the gradual migration planner.
type MigrationOptions = migrate.Options

// MigrationPlan is a gradual (or one-shot) migration schedule with
// handover accounting.
type MigrationPlan = migrate.Plan

// FeedbackMode selects the reactive baseline's measurement-cost model.
type FeedbackMode = feedback.Mode

// Feedback modes.
const (
	FeedbackIdealized = feedback.Idealized
	FeedbackRealistic = feedback.Realistic
)

// FeedbackOptions tune the reactive baseline simulation.
type FeedbackOptions = feedback.Options

// FeedbackResult reports a reactive baseline run: steps, measurement
// rounds, wall-clock cost and the utility timeline.
type FeedbackResult = feedback.Result

// NetworkState is a full radio evaluation of one configuration: serving
// map, SINR, rates and loads, with incremental re-evaluation.
type NetworkState = netmodel.State

// --- Extensions beyond the paper's evaluation (its §2/§8 roadmap) ---

// OutagePlanner precomputes mitigation configurations for unplanned
// sector outages (paper §8 future work).
type OutagePlanner = outageplan.Planner

// OutagePlanOptions configure outage precomputation.
type OutagePlanOptions = outageplan.Options

// OutageResponse is the outcome of reacting to an unplanned outage.
type OutageResponse = outageplan.Response

// NewOutagePlanner precomputes outage responses for the sectors in
// scope (nil = the engine's tuning area).
func NewOutagePlanner(engine *Engine, scope []int, opts OutagePlanOptions) (*OutagePlanner, error) {
	return outageplan.New(engine, scope, opts)
}

// HybridConfig configures a hybrid model+feedback evaluation under
// model error (paper §2).
type HybridConfig = hybrid.Config

// HybridResult reports the hybrid evaluation.
type HybridResult = hybrid.Result

// RunHybrid evaluates model-only, hybrid, and feedback-only mitigation
// under explicit model error.
func RunHybrid(cfg HybridConfig) (*HybridResult, error) { return hybrid.Run(cfg) }

// SignalingConfig describes the mobility core's handover-transaction
// capacity; SignalingReport is a migration plan's control-plane cost.
type (
	SignalingConfig = signaling.Config
	SignalingReport = signaling.Report
)

// EvaluateSignaling replays a migration plan's handover bursts through
// the signaling queue model.
func EvaluateSignaling(plan *MigrationPlan, cfg SignalingConfig) (*SignalingReport, error) {
	return signaling.Evaluate(plan, cfg)
}

// LoadBalanceOptions and LoadBalanceResult belong to the congestion
// relief extension (paper §8).
type (
	LoadBalanceOptions = loadbalance.Options
	LoadBalanceResult  = loadbalance.Result
)

// Balance greedily reduces the load imbalance of a network state in
// place, bounded by a utility-sacrifice budget.
func Balance(st *NetworkState, opts LoadBalanceOptions) (*LoadBalanceResult, error) {
	return loadbalance.Balance(st, opts)
}

// MultiCarrierNetwork is a deployment with several orthogonal LTE
// carriers sharing one physical topology (paper §1's multi-carrier
// generalization); MultiCarrierPlan is its mitigation result.
type (
	MultiCarrierNetwork = multicarrier.Network
	MultiCarrierPlan    = multicarrier.Plan
	CarrierSpec         = multicarrier.Carrier
)

// DefaultCarriers returns a typical two-carrier deployment.
func DefaultCarriers() []CarrierSpec { return multicarrier.DefaultCarriers() }

// SimWindowConfig configures a discrete-event simulation of an upgrade
// window; SimOutcome is its per-tick series plus summary accounting.
type (
	SimWindowConfig = simwindow.Config
	SimOutcome      = simwindow.Outcome
	SimFault        = simwindow.Fault
)

// ParseFaults parses a comma-separated fault script (e.g.
// "push-fail@2,sector-down@20:17,surge@10+8:5:x1.8") for a simulated
// upgrade window.
func ParseFaults(script string) ([]SimFault, error) { return simwindow.ParseFaults(script) }

// SimulateWindow executes a runbook tick by tick from the engine's
// C_before state: scheduled pushes, diurnal load, fault injection, and
// (when cfg.Replan is set) corrective replanning on floor breaches.
func SimulateWindow(engine *Engine, rb *runbook.Runbook, cfg SimWindowConfig) (*SimOutcome, error) {
	sim, err := simwindow.New(engine.Before, rb, cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// WaveOptions configures the upgrade-season scheduler: calendar
// constraints (crews per wave, blackout slots), the co-upgrade conflict
// graph's overlap threshold, the anneal budget, and the optional
// per-wave replay drill; WaveResult is the ordered season with one
// runbook per wave and the halt/rollback state when a replay breaches
// the utility floor.
type (
	WaveOptions     = waveplan.Options
	WaveConstraints = waveplan.Constraints
	WaveResult      = waveplan.Result
)

// PlanWaveSeason partitions the upgrade set (nil = the engine's whole
// tuning area) into conflict-free waves under opts' calendar, anneals
// the assignment on season-minimum f(C_after), and plans each wave's
// mitigation and runbook. Equal inputs reproduce the season
// bit-identically.
func PlanWaveSeason(engine *Engine, sectors []int, opts WaveOptions) (*WaveResult, error) {
	return waveplan.Plan(engine, sectors, opts)
}

// Dataset is an operational data snapshot (per-tilt link-budget
// matrices, configuration, user densities) in the sanitizer's exchange
// form; see Engine.ExportDataset and Engine.UseDataset.
type Dataset = sanitize.Dataset

// SanitizePolicy selects how dataset defects are handled.
type SanitizePolicy = sanitize.Policy

// Sanitize policies: Strict rejects defective data outright, Repair
// reconstructs what it defensibly can, Quarantine excludes defective
// sectors from tuning without rewriting their data.
const (
	SanitizeStrict     = sanitize.Strict
	SanitizeRepair     = sanitize.Repair
	SanitizeQuarantine = sanitize.Quarantine
)

// SanitationReport enumerates the defects a sanitizer run found and
// what was done about each.
type SanitationReport = sanitize.Report

// ErrDataRejected is returned (wrapped) when a Strict sanitizer run
// finds any defect.
var ErrDataRejected = sanitize.ErrRejected

// ParseSanitizePolicy maps a wire name (strict, repair, quarantine; ""
// selects repair) to its policy.
func ParseSanitizePolicy(s string) (SanitizePolicy, error) { return sanitize.ParsePolicy(s) }

// LoadDataset reads an operational dataset from a JSON file in the
// exchange format written by SaveDataset.
func LoadDataset(path string) (*Dataset, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ds Dataset
	if err := json.Unmarshal(raw, &ds); err != nil {
		return nil, fmt.Errorf("magus: dataset %s: %w", path, err)
	}
	return &ds, nil
}

// SaveDataset writes a dataset as indented JSON, the inverse of
// LoadDataset. Datasets holding NaN or infinite cells cannot be
// serialized (JSON has no encoding for them) — sanitize first.
func SaveDataset(path string, ds *Dataset) error {
	raw, err := json.MarshalIndent(ds, "", " ")
	if err != nil {
		return fmt.Errorf("magus: dataset %s: %w", path, err)
	}
	return os.WriteFile(path, raw, 0o644)
}

// NewEngine synthesizes a market area per cfg and prepares the
// planner-optimized baseline.
func NewEngine(cfg SetupConfig) (*Engine, error) { return core.NewEngine(cfg) }

// MustNewEngine is NewEngine that panics on error.
func MustNewEngine(cfg SetupConfig) *Engine { return core.MustNewEngine(cfg) }

// RecoveryRatio computes the paper's Formula 7 from the three utilities.
func RecoveryRatio(before, upgrade, after float64) float64 {
	return utility.RecoveryRatio(before, upgrade, after)
}
