package simwindow

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// FaultKind classifies an injected fault.
type FaultKind int

const (
	// FaultPushFail drops one runbook push: the OSS accepts the change
	// but the eNodeB never applies it (the step's changes are lost).
	FaultPushFail FaultKind = iota
	// FaultPushDelay holds one runbook push for DelayTicks ticks;
	// because pushes execute in order, every later push shifts too.
	FaultPushDelay
	// FaultSectorDown takes a sector off-air at Tick — the
	// "compensating neighbor dies mid-window" scenario.
	FaultSectorDown
	// FaultLoadSurge multiplies the UE density within RadiusM of a
	// sector by Factor for DurationTicks ticks.
	FaultLoadSurge
)

// String names the kind as used in the script syntax.
func (k FaultKind) String() string {
	switch k {
	case FaultPushFail:
		return "push-fail"
	case FaultPushDelay:
		return "push-delay"
	case FaultSectorDown:
		return "sector-down"
	case FaultLoadSurge:
		return "surge"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is one scripted deviation from the planned window. Exactly the
// fields relevant to the kind are set.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// Step is the 1-based runbook step index (push faults).
	Step int `json:"step,omitempty"`
	// DelayTicks holds a delayed push back this many ticks.
	DelayTicks int `json:"delay_ticks,omitempty"`
	// Tick schedules sector-down and surge faults.
	Tick int `json:"tick,omitempty"`
	// Sector is the failing sector (sector-down) or the surge center.
	Sector int `json:"sector,omitempty"`
	// DurationTicks bounds a surge (0 = never expires).
	DurationTicks int `json:"duration_ticks,omitempty"`
	// Factor is the surge's UE-density multiplier.
	Factor float64 `json:"factor,omitempty"`
	// RadiusM is the surge's half-extent around the sector (default
	// 1500 m).
	RadiusM float64 `json:"radius_m,omitempty"`
}

// String renders the fault in the script syntax ParseFault accepts.
func (f Fault) String() string {
	switch f.Kind {
	case FaultPushFail:
		return fmt.Sprintf("push-fail@%d", f.Step)
	case FaultPushDelay:
		return fmt.Sprintf("push-delay@%d+%d", f.Step, f.DelayTicks)
	case FaultSectorDown:
		return fmt.Sprintf("sector-down@%d:%d", f.Tick, f.Sector)
	case FaultLoadSurge:
		return fmt.Sprintf("surge@%d+%d:%d:x%g", f.Tick, f.DurationTicks, f.Sector, f.Factor)
	default:
		return f.Kind.String()
	}
}

// validate checks f against a runbook of steps pushes and a network of
// sectors sectors.
func (f Fault) validate(steps, sectors int) error {
	switch f.Kind {
	case FaultPushFail, FaultPushDelay:
		if f.Step < 1 || f.Step > steps {
			return fmt.Errorf("simwindow: fault %v: runbook has %d steps", f, steps)
		}
		if f.Kind == FaultPushDelay && f.DelayTicks <= 0 {
			return fmt.Errorf("simwindow: fault %v: delay must be positive", f)
		}
	case FaultSectorDown, FaultLoadSurge:
		if f.Tick < 0 {
			return fmt.Errorf("simwindow: fault %v: tick must be non-negative", f)
		}
		if f.Sector < 0 || f.Sector >= sectors {
			return fmt.Errorf("simwindow: fault %v: sector out of range [0, %d)", f, sectors)
		}
		if f.Kind == FaultLoadSurge {
			if f.DurationTicks < 0 {
				return fmt.Errorf("simwindow: fault %v: duration must be non-negative", f)
			}
			if f.Factor <= 0 {
				return fmt.Errorf("simwindow: fault %v: factor must be positive", f)
			}
		}
	default:
		return fmt.Errorf("simwindow: unknown fault kind %d", int(f.Kind))
	}
	return nil
}

// ParseFault parses one fault in the compact script syntax:
//
//	push-fail@STEP              the STEPth push is silently lost
//	push-delay@STEP+TICKS       the STEPth push (and followers) slip
//	sector-down@TICK:SECTOR     SECTOR goes off-air at TICK
//	surge@TICK+DUR:SECTOR:xF    UE density around SECTOR times F
func ParseFault(s string) (Fault, error) {
	kind, rest, ok := strings.Cut(strings.TrimSpace(s), "@")
	if !ok {
		return Fault{}, fmt.Errorf("simwindow: fault %q: missing '@'", s)
	}
	bad := func(err error) (Fault, error) {
		return Fault{}, fmt.Errorf("simwindow: fault %q: %v", s, err)
	}
	num := func(v string) (int, error) { return strconv.Atoi(strings.TrimSpace(v)) }
	switch kind {
	case "push-fail":
		step, err := num(rest)
		if err != nil {
			return bad(err)
		}
		return Fault{Kind: FaultPushFail, Step: step}, nil
	case "push-delay":
		stepStr, delayStr, ok := strings.Cut(rest, "+")
		if !ok {
			return bad(fmt.Errorf("want STEP+TICKS"))
		}
		step, err := num(stepStr)
		if err != nil {
			return bad(err)
		}
		delay, err := num(delayStr)
		if err != nil {
			return bad(err)
		}
		return Fault{Kind: FaultPushDelay, Step: step, DelayTicks: delay}, nil
	case "sector-down":
		tickStr, secStr, ok := strings.Cut(rest, ":")
		if !ok {
			return bad(fmt.Errorf("want TICK:SECTOR"))
		}
		tick, err := num(tickStr)
		if err != nil {
			return bad(err)
		}
		sec, err := num(secStr)
		if err != nil {
			return bad(err)
		}
		return Fault{Kind: FaultSectorDown, Tick: tick, Sector: sec}, nil
	case "surge":
		parts := strings.SplitN(rest, ":", 3)
		if len(parts) != 3 {
			return bad(fmt.Errorf("want TICK+DUR:SECTOR:xFACTOR"))
		}
		tickStr, durStr, ok := strings.Cut(parts[0], "+")
		if !ok {
			return bad(fmt.Errorf("want TICK+DUR"))
		}
		tick, err := num(tickStr)
		if err != nil {
			return bad(err)
		}
		dur, err := num(durStr)
		if err != nil {
			return bad(err)
		}
		sec, err := num(parts[1])
		if err != nil {
			return bad(err)
		}
		factorStr := strings.TrimPrefix(strings.TrimSpace(parts[2]), "x")
		factor, err := strconv.ParseFloat(factorStr, 64)
		if err != nil {
			return bad(err)
		}
		return Fault{Kind: FaultLoadSurge, Tick: tick, DurationTicks: dur, Sector: sec, Factor: factor}, nil
	default:
		return bad(fmt.Errorf("unknown kind %q", kind))
	}
}

// ParseFaults parses a comma-separated fault script ("" = no faults).
func ParseFaults(s string) ([]Fault, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Fault
	for _, part := range strings.Split(s, ",") {
		f, err := ParseFault(part)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// sortFaults orders scheduled faults by (tick, kind, sector) so the
// event loop processes them deterministically regardless of script
// order.
func sortFaults(fs []Fault) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Tick != fs[j].Tick {
			return fs[i].Tick < fs[j].Tick
		}
		if fs[i].Kind != fs[j].Kind {
			return fs[i].Kind < fs[j].Kind
		}
		return fs[i].Sector < fs[j].Sector
	})
}
