package simwindow

import (
	"magus/internal/netmodel"
	"magus/internal/utility"
)

// meterResyncTicks bounds the incremental engine's floating-point
// repair drift: every this many measured ticks (and after a replan) the
// meter rebuilds the aggregate sums and its below-floor bookkeeping
// from scratch.
const meterResyncTicks = 64

// meter produces the per-tick KPI series. In the default incremental
// mode it reads the states' per-sector KPI aggregates (O(sectors) per
// tick) and repairs its own handover snapshot and below-floor running
// sum from the live state's radio-change log (O(changed) per tick).
// The full-scan mode retains the legacy full-grid scans — sharded over
// fixed grid ranges with in-order reduction, so the reference series is
// deterministic for every worker count. Only tests select it: the
// golden tests pin the incremental series against it, and
// BenchmarkSimWindow prices the two modes side by side.
//
// Bit-identity contract: the handover series is identical between the
// two modes — both group the per-grid sum by the same fixed shard
// ranges over the same ascending grid order, and every serving-sector
// change is covered by the change log. The utility, floor, below-floor
// and max-load series agree within floating-point association (≤1e-9
// relative), because the incremental path sums in a different order.
type meter struct {
	full      bool
	util      utility.Func
	workers   int
	sinrFloor float64

	model    *netmodel.Model
	live     *netmodel.State
	afterRef *netmodel.State

	numGrids    int
	bounds      [][2]int
	prevServing []int32
	parts       []float64 // per-shard handover partials (scratch)
	drain       []int32   // drained change-log scratch

	// Below-floor bookkeeping in base UE units: belowBase is the base
	// weight over grids with belowFlag set; the uniform load factor is
	// applied at read time.
	belowFlag []bool
	belowBase float64

	sinceSync int
}

func newMeter(m *netmodel.Model, live, afterRef *netmodel.State, cfg *Config, full bool) *meter {
	numGrids := m.Grid.NumCells()
	mt := &meter{
		full:        full,
		util:        cfg.Util,
		workers:     cfg.Workers,
		sinrFloor:   m.Link.MinSINRdB(),
		model:       m,
		live:        live,
		afterRef:    afterRef,
		numGrids:    numGrids,
		bounds:      netmodel.ShardBounds(numGrids),
		prevServing: make([]int32, numGrids),
	}
	mt.parts = make([]float64, len(mt.bounds))
	for g := 0; g < numGrids; g++ {
		mt.prevServing[g] = int32(live.ServingSector(g))
	}
	if !mt.full {
		live.EnableKPIAggregates(cfg.Util, cfg.Workers)
		afterRef.EnableKPIAggregates(cfg.Util, cfg.Workers)
		live.EnableChangeLog()
		mt.belowFlag = make([]bool, numGrids)
		mt.rebuildBelow()
	}
	return mt
}

// rebuildBelow derives the below-floor flags and base-weight sum with
// one sharded full scan (flag writes are disjoint per shard; the sum
// reduces in shard order).
func (mt *meter) rebuildBelow() {
	mt.belowBase = netmodel.ShardSum(mt.numGrids, mt.workers, func(lo, hi int) float64 {
		sum := 0.0
		for g := lo; g < hi; g++ {
			w := mt.model.UEBase(g)
			below := w != 0 && mt.live.SINRdB(g) < mt.sinrFloor
			mt.belowFlag[g] = below
			if below {
				sum += w
			}
		}
		return sum
	})
}

// utilities returns the tick's f(C_live) and f(C_after).
func (mt *meter) utilities() (u, floor float64) {
	if mt.full {
		return mt.live.UtilityScan(mt.util, mt.workers),
			mt.afterRef.UtilityScan(mt.util, mt.workers)
	}
	return mt.live.KPIUtility(), mt.afterRef.KPIUtility()
}

// measureChanges returns the tick's handover volume (UE weight whose
// serving sector changed since the previous call) and the UE weight
// below the SINR floor, updating the serving snapshot.
func (mt *meter) measureChanges() (handovers, below float64) {
	if mt.full {
		handovers = netmodel.ShardSum(mt.numGrids, mt.workers, func(lo, hi int) float64 {
			sum := 0.0
			for g := lo; g < hi; g++ {
				cur := int32(mt.live.ServingSector(g))
				if cur != mt.prevServing[g] {
					sum += mt.model.UE(g)
					mt.prevServing[g] = cur
				}
			}
			return sum
		})
		below = netmodel.ShardSum(mt.numGrids, mt.workers, func(lo, hi int) float64 {
			sum := 0.0
			for g := lo; g < hi; g++ {
				if w := mt.model.UE(g); w != 0 && mt.live.SINRdB(g) < mt.sinrFloor {
					sum += w
				}
			}
			return sum
		})
		return handovers, below
	}

	// Incremental: every serving or SINR change since the last drain is
	// in the log. The handover sum is grouped by the same shard ranges
	// as the full scan (drained grids come back sorted ascending), which
	// is what makes the two series bit-identical.
	for i := range mt.parts {
		mt.parts[i] = 0
	}
	mt.drain = mt.live.DrainChangedGrids(mt.drain[:0])
	si := 0
	for _, g32 := range mt.drain {
		g := int(g32)
		if cur := int32(mt.live.ServingSector(g)); cur != mt.prevServing[g] {
			for g >= mt.bounds[si][1] {
				si++
			}
			mt.parts[si] += mt.model.UE(g)
			mt.prevServing[g] = cur
		}
		w := mt.model.UEBase(g)
		nf := w != 0 && mt.live.SINRdB(g) < mt.sinrFloor
		if nf != mt.belowFlag[g] {
			if nf {
				mt.belowBase += w
			} else {
				mt.belowBase -= w
			}
			mt.belowFlag[g] = nf
		}
	}
	for _, p := range mt.parts {
		handovers += p
	}
	return handovers, mt.belowBase * mt.model.UEFactor()
}

// scaleAt rescales the model's base UE weights over grids by factor.
// Flagged grids' base weights move out of and back into the running
// below-floor sum exactly (old weight read before the rescale, new
// weight after), and the live/floor states repair their loads and
// aggregates from the same event. In full-scan mode loadsChanged
// rebuilds the loads instead.
func (mt *meter) scaleAt(grids []int, factor float64) {
	if mt.full {
		mt.model.ScaleUsersAt(grids, factor)
		return
	}
	for _, g := range grids {
		if mt.belowFlag[g] {
			mt.belowBase -= mt.model.UEBase(g)
		}
	}
	mt.model.ScaleUsersAt(grids, factor)
	for _, g := range grids {
		if mt.belowFlag[g] {
			mt.belowBase += mt.model.UEBase(g)
		}
	}
	mt.live.NoteUsersScaledAt(grids, factor)
	mt.afterRef.NoteUsersScaledAt(grids, factor)
}

// loadsChanged follows a tick's load evolution: the full-scan mode
// rebuilds both states' loads wholesale; the incremental mode already
// repaired them per event.
func (mt *meter) loadsChanged() {
	if mt.full {
		mt.live.RecomputeLoads()
		mt.afterRef.RecomputeLoads()
	}
}

// tickDone advances the drift clock, resyncing on cadence.
func (mt *meter) tickDone() {
	if mt.full {
		return
	}
	mt.sinceSync++
	if mt.sinceSync >= meterResyncTicks {
		mt.resync()
	}
}

// resync rebuilds everything the incremental path maintains by ±repair:
// the per-sector aggregate sums of both states and the below-floor
// bookkeeping. The serving snapshot is exact by construction and is
// left alone.
func (mt *meter) resync() {
	if mt.full {
		return
	}
	mt.sinceSync = 0
	mt.live.ResyncKPIAggregates(mt.workers)
	mt.afterRef.ResyncKPIAggregates(mt.workers)
	mt.rebuildBelow()
}
