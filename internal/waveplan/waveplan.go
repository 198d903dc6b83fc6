package waveplan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"magus/internal/config"
	"magus/internal/core"
	"magus/internal/runbook"
	"magus/internal/simwindow"
	"magus/internal/utility"
)

// Constraints bound a season's shape: how many sectors one wave may
// darken, how many calendar slots the season spans, and which slots are
// blacked out (change freezes, holidays, marquee events).
type Constraints struct {
	// CrewsPerWave caps the sectors darkened together — one field crew
	// per sector under work (default 4).
	CrewsPerWave int `json:"crews_per_wave"`
	// MaxWaves is the calendar length in wave slots. 0 sizes the
	// calendar automatically: enough slots for capacity, the conflict
	// graph's chromatic bound, and the blackouts.
	MaxWaves int `json:"max_waves"`
	// Blackout lists calendar slots (0-based) where no wave may run.
	Blackout []int `json:"blackout,omitempty"`
	// OverlapThreshold is the coverage overlap fraction above which two
	// sectors may not share a wave (default 0.15).
	OverlapThreshold float64 `json:"overlap_threshold"`
	// MarginDB is the coverage-reach margin handed to the conflict
	// graph, the same criterion as InterferingSectorCount (default 6).
	MarginDB float64 `json:"margin_db"`
}

func (c *Constraints) applyDefaults(n, maxDegree int) {
	if c.CrewsPerWave <= 0 {
		c.CrewsPerWave = 4
	}
	if c.OverlapThreshold <= 0 {
		c.OverlapThreshold = 0.15
	}
	if c.MarginDB <= 0 {
		c.MarginDB = 6
	}
	if c.MaxWaves <= 0 {
		needed := (n + c.CrewsPerWave - 1) / c.CrewsPerWave
		c.MaxWaves = needed + maxDegree + len(c.Blackout) + 1
	}
}

// blackoutSet normalizes the blackout list against the calendar.
func (c *Constraints) blackoutSet() map[int]bool {
	set := make(map[int]bool, len(c.Blackout))
	for _, s := range c.Blackout {
		if s >= 0 && s < c.MaxWaves {
			set[s] = true
		}
	}
	return set
}

// availableSlots returns the non-blackout calendar slots, ascending.
func (c *Constraints) availableSlots() []int {
	black := c.blackoutSet()
	slots := make([]int, 0, c.MaxWaves)
	for s := 0; s < c.MaxWaves; s++ {
		if !black[s] {
			slots = append(slots, s)
		}
	}
	return slots
}

// Options tune one season plan. The zero value plans the engine's whole
// tuning area with joint mitigation and no replay.
type Options struct {
	Constraints
	// Method is the per-wave mitigation search (default core.Joint).
	Method core.Method
	// Util is the objective (default utility.Performance).
	Util utility.Func
	// Seed drives the anneal's private rand.Rand and, offset per wave,
	// each wave's replay. Equal inputs and Options reproduce the season
	// bit-identically (0 selects 1).
	Seed int64
	// AnnealIters bounds the annealing moves (default 3000).
	AnnealIters int
	// Workers is the per-wave mitigation search parallelism (same knob
	// as core.MitigateRequest.Workers).
	Workers int
	// RollingRecovery is the recovery ratio at or above which a wave is
	// marked "rolling" — the season proceeds while the wave executes;
	// below it the wave is "stopping" and the season pauses until its
	// targets return to air (default 0.5).
	RollingRecovery float64
	// Replay simulates each wave's runbook through a simwindow before
	// committing to the next wave; a floor breach halts the season.
	Replay bool
	// ReplayTicks overrides the replay window length (0 = simwindow
	// default).
	ReplayTicks int
	// ReplayFaults is injected into every wave's replay (chaos drills,
	// halt tests).
	ReplayFaults []simwindow.Fault
	// HaltBelowTicks is the consecutive below-floor replay ticks that
	// halt the season (default simwindow.FloorStreak).
	HaltBelowTicks int
	// Ctx, when non-nil, aborts planning between searches and replay
	// ticks.
	Ctx context.Context
}

func (o *Options) applyDefaults() {
	if o.Util.U == nil {
		o.Util = utility.Performance
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.AnnealIters <= 0 {
		o.AnnealIters = 3000
	}
	if o.RollingRecovery <= 0 {
		o.RollingRecovery = 0.5
	}
	if o.HaltBelowTicks <= 0 {
		o.HaltBelowTicks = simwindow.FloorStreak
	}
}

// Wave is one evaluated wave of a season.
type Wave struct {
	// Wave is the 1-based execution order; Slot the calendar slot.
	Wave int `json:"wave"`
	Slot int `json:"slot"`
	// Sectors go off-air together in this wave, ascending.
	Sectors []int `json:"sectors"`
	// Semantics is "rolling" or "stopping" (see Options.RollingRecovery).
	Semantics string `json:"semantics,omitempty"`
	// EstimatedUtility is the anneal scorer's additive estimate of the
	// wave's f(C_upgrade) — cheap, optimistic where coverage overlaps.
	EstimatedUtility float64 `json:"estimated_utility"`
	// UtilityUpgrade and UtilityAfter are the exact f(C_upgrade) and
	// f(C_after) from the wave's mitigation plan; Recovery is Formula 7.
	UtilityUpgrade float64 `json:"utility_upgrade"`
	UtilityAfter   float64 `json:"utility_after"`
	Recovery       float64 `json:"recovery"`
	// Handovers is the wave's migration handover volume.
	Handovers float64 `json:"handovers"`
	// Runbook is the wave's executable document, annotated with WaveMeta.
	Runbook *runbook.Runbook `json:"runbook,omitempty"`
	// Replay summarizes the wave's simwindow replay, when enabled.
	Replay *simwindow.Summary `json:"replay,omitempty"`
	// Halted marks the wave whose replay breached the floor and stopped
	// the season; Cancelled marks the waves scheduled after it.
	Halted    bool `json:"halted,omitempty"`
	Cancelled bool `json:"cancelled,omitempty"`
}

// Result is a fully evaluated season.
type Result struct {
	// Sectors is the upgrade set, ascending.
	Sectors     []int       `json:"sectors"`
	Constraints Constraints `json:"constraints"`
	Seed        int64       `json:"seed"`
	Method      string      `json:"method"`
	Objective   string      `json:"objective"`
	// UtilityBefore is f(C_before), the shared reference of every wave.
	UtilityBefore float64 `json:"utility_before"`
	// Conflict-graph shape.
	ConflictEdges     int `json:"conflict_edges"`
	MaxConflictDegree int `json:"max_conflict_degree"`
	// Anneal accounting (zero for evaluations of a fixed assignment).
	AnnealIterations int `json:"anneal_iterations,omitempty"`
	AnnealAccepted   int `json:"anneal_accepted,omitempty"`
	// EstimatedMin is the scorer's season-wide minimum wave estimate.
	EstimatedMin float64 `json:"estimated_min"`
	// Waves in execution order, including any cancelled tail.
	Waves []Wave `json:"waves"`
	// MinWaveUtility is the season-wide minimum exact f(C_after) over
	// executed waves — the number the schedule optimizes.
	MinWaveUtility  float64 `json:"min_wave_utility"`
	MeanWaveUtility float64 `json:"mean_wave_utility"`
	TotalHandovers  float64 `json:"total_handovers"`
	// Halt state (ADR-018: a breached halt condition stops the rollout
	// and the operator unwinds the halted wave).
	Halted     bool   `json:"halted,omitempty"`
	HaltWave   int    `json:"halt_wave,omitempty"`
	HaltReason string `json:"halt_reason,omitempty"`
	// Rollback is the halted wave's unwind document.
	Rollback *runbook.Runbook `json:"rollback,omitempty"`
}

// UpgradeSet returns the default season scope: every sector whose
// antenna sits inside the engine's tuning area, ascending.
func UpgradeSet(e *core.Engine) []int {
	area := e.TuningArea()
	var out []int
	for b := range e.Net.Sectors {
		if area.Contains(e.Net.Sectors[b].Pos) {
			out = append(out, b)
		}
	}
	return out
}

// offDeltas scores each sector's lone off-air utility delta with one
// read-only SpeculateBatch over a private clone of C_before — the cheap
// inner-loop estimate the anneal sums per wave. Additivity is exact
// when co-darkened coverage does not overlap, which is what the
// conflict constraint enforces.
func offDeltas(e *core.Engine, sectors []int, util utility.Func) (map[int]float64, float64) {
	base := e.Before.Clone()
	uBefore := base.Utility(util)
	moves := make([]config.Change, len(sectors))
	for i, s := range sectors {
		moves[i] = config.Change{Sector: s, TurnOff: true}
	}
	res := base.SpeculateBatch(moves, util, nil)
	deltas := make(map[int]float64, len(sectors))
	for i, r := range res {
		if r.Err != nil {
			deltas[sectors[i]] = 0
			continue
		}
		deltas[sectors[i]] = r.Delta
	}
	return deltas, uBefore
}

// assignment tracks a candidate season during search: positions index
// into the graph's Sectors slice.
type assignment struct {
	slotOf []int   // per position: calendar slot
	slots  [][]int // per calendar slot: member positions
}

func newAssignment(n, maxWaves int) *assignment {
	a := &assignment{slotOf: make([]int, n), slots: make([][]int, maxWaves)}
	for i := range a.slotOf {
		a.slotOf[i] = -1
	}
	return a
}

func (a *assignment) place(i, slot int) {
	a.slotOf[i] = slot
	a.slots[slot] = append(a.slots[slot], i)
}

func (a *assignment) remove(i int) {
	slot := a.slotOf[i]
	members := a.slots[slot]
	for k, j := range members {
		if j == i {
			a.slots[slot] = append(members[:k], members[k+1:]...)
			break
		}
	}
	a.slotOf[i] = -1
}

func (a *assignment) clone() *assignment {
	c := &assignment{
		slotOf: append([]int(nil), a.slotOf...),
		slots:  make([][]int, len(a.slots)),
	}
	for s, members := range a.slots {
		c.slots[s] = append([]int(nil), members...)
	}
	return c
}

// score is the anneal objective: primarily the worst wave's estimated
// utility, with the mean as a small tie-breaking gradient. Larger is
// better. An empty season scores -Inf.
func (a *assignment) score(g *ConflictGraph, deltas map[int]float64, uBefore float64) float64 {
	min := math.Inf(1)
	sum, waves := 0.0, 0
	for _, members := range a.slots {
		if len(members) == 0 {
			continue
		}
		est := uBefore
		for _, i := range members {
			est += deltas[g.Sectors[i]]
		}
		if est < min {
			min = est
		}
		sum += est
		waves++
	}
	if waves == 0 {
		return math.Inf(-1)
	}
	return min + 1e-6*sum/float64(waves)
}

// greedy builds a feasible initial assignment: sectors in conflict-
// degree-descending order each take the earliest slot with crew
// capacity and no conflict.
func greedy(g *ConflictGraph, c Constraints) (*assignment, error) {
	n := len(g.Sectors)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		i, j := order[x], order[y]
		if len(g.adj[i]) != len(g.adj[j]) {
			return len(g.adj[i]) > len(g.adj[j])
		}
		if g.coverSize[i] != g.coverSize[j] {
			return g.coverSize[i] > g.coverSize[j]
		}
		return g.Sectors[i] < g.Sectors[j]
	})
	a := newAssignment(n, c.MaxWaves)
	avail := c.availableSlots()
	for _, i := range order {
		placed := false
		for _, slot := range avail {
			if len(a.slots[slot]) >= c.CrewsPerWave || g.conflictsAt(i, a.slots[slot]) {
				continue
			}
			a.place(i, slot)
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf(
				"waveplan: infeasible: sector %d fits no slot (%d slots x %d crews, %d conflicts); raise max_waves or crews_per_wave",
				g.Sectors[i], len(avail), c.CrewsPerWave, len(g.adj[i]))
		}
	}
	return a, nil
}

// anneal improves the greedy assignment under a Metropolis acceptance
// rule with geometric cooling. Moves relocate one sector to another
// feasible slot or swap two sectors across slots; infeasible proposals
// are rejected outright, so every visited season satisfies the
// constraints. Deterministic for a given seed.
func anneal(g *ConflictGraph, c Constraints, deltas map[int]float64, uBefore float64,
	a *assignment, iters int, seed int64) (*assignment, int) {
	n := len(g.Sectors)
	avail := c.availableSlots()
	if n < 2 || len(avail) < 2 || iters <= 0 {
		return a, 0
	}
	rng := rand.New(rand.NewSource(seed))

	span := 0.0
	for _, d := range deltas {
		if ad := math.Abs(d); ad > span {
			span = ad
		}
	}
	if span == 0 {
		span = 1
	}
	t0, tEnd := span, span/1000

	cur := a.clone()
	curScore := cur.score(g, deltas, uBefore)
	best, bestScore := cur.clone(), curScore
	accepted := 0

	for it := 0; it < iters; it++ {
		temp := t0 * math.Pow(tEnd/t0, float64(it)/float64(iters))
		i := rng.Intn(n)
		dst := avail[rng.Intn(len(avail))]
		src := cur.slotOf[i]
		if dst == src {
			continue
		}

		var undo func()
		if len(cur.slots[dst]) < c.CrewsPerWave && !g.conflictsAt(i, cur.slots[dst]) {
			cur.remove(i)
			cur.place(i, dst)
			undo = func() { cur.remove(i); cur.place(i, src) }
		} else if len(cur.slots[dst]) > 0 {
			j := cur.slots[dst][rng.Intn(len(cur.slots[dst]))]
			cur.remove(i)
			cur.remove(j)
			if g.conflictsAt(i, cur.slots[dst]) || g.conflictsAt(j, cur.slots[src]) {
				cur.place(i, src)
				cur.place(j, dst)
				continue
			}
			cur.place(i, dst)
			cur.place(j, src)
			undo = func() {
				cur.remove(i)
				cur.remove(j)
				cur.place(i, src)
				cur.place(j, dst)
			}
		} else {
			continue
		}

		newScore := cur.score(g, deltas, uBefore)
		if newScore >= curScore || rng.Float64() < math.Exp((newScore-curScore)/temp) {
			curScore = newScore
			accepted++
			if newScore > bestScore {
				best, bestScore = cur.clone(), newScore
			}
		} else {
			undo()
		}
	}
	return best, accepted
}

// RoundRobin is the naive baseline scheduler: sectors in ID order are
// dealt across the available calendar slots cyclically, honoring crew
// capacity but ignoring coverage conflicts — what an operator does with
// a spreadsheet. Returns per-slot sector IDs (empty slices for blackout
// slots).
func RoundRobin(sectors []int, c Constraints) ([][]int, error) {
	ids := append([]int(nil), sectors...)
	sort.Ints(ids)
	c.applyDefaults(len(ids), 0)
	avail := c.availableSlots()
	if len(avail)*c.CrewsPerWave < len(ids) {
		return nil, fmt.Errorf("waveplan: infeasible: %d sectors over %d slots x %d crews",
			len(ids), len(avail), c.CrewsPerWave)
	}
	out := make([][]int, c.MaxWaves)
	for k, s := range ids {
		slot := avail[k%len(avail)]
		for len(out[slot]) >= c.CrewsPerWave {
			slot = avail[(slot+1)%len(avail)]
		}
		out[slot] = append(out[slot], s)
	}
	return out, nil
}

// Plan schedules an upgrade season for the given sectors (nil plans the
// engine's whole tuning area): it builds the conflict graph, scores
// per-sector off-air deltas once with SpeculateBatch, anneals the wave
// assignment under the constraints, and evaluates the winning season
// exactly — one mitigation plan, migration and runbook per wave, plus
// the optional replay with halt/rollback. Deterministic for a given
// engine, sector set and Options.
func Plan(e *core.Engine, sectors []int, opts Options) (*Result, error) {
	opts.applyDefaults()
	if sectors == nil {
		sectors = UpgradeSet(e)
	}
	if len(sectors) == 0 {
		return nil, fmt.Errorf("waveplan: empty upgrade set")
	}
	// Build the graph with pre-default margin/threshold so applyDefaults
	// can use its degree bound for the automatic calendar length.
	c := opts.Constraints
	if c.OverlapThreshold <= 0 {
		c.OverlapThreshold = 0.15
	}
	if c.MarginDB <= 0 {
		c.MarginDB = 6
	}
	g := BuildConflictGraph(e.Model, sectors, c.OverlapThreshold, c.MarginDB)
	c.applyDefaults(len(g.Sectors), g.MaxDegree())
	opts.Constraints = c
	counters.conflictEdges.Add(int64(g.Edges()))

	deltas, uBefore := offDeltas(e, g.Sectors, opts.Util)
	initial, err := greedy(g, c)
	if err != nil {
		return nil, err
	}
	best, accepted := anneal(g, c, deltas, uBefore, initial, opts.AnnealIters, opts.Seed)
	counters.annealIterations.Add(int64(opts.AnnealIters))
	counters.annealAccepted.Add(int64(accepted))

	byWave := make([][]int, c.MaxWaves)
	for slot, members := range best.slots {
		for _, i := range members {
			byWave[slot] = append(byWave[slot], g.Sectors[i])
		}
		sort.Ints(byWave[slot])
	}
	res, err := EvaluateAssignment(e, byWave, opts)
	if err != nil {
		return nil, err
	}
	res.AnnealIterations = opts.AnnealIters
	res.AnnealAccepted = accepted
	return res, nil
}
