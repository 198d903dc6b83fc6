// Package chaos makes executor failure first-class: a deterministic,
// seed-driven fault plan injected between the runbook executor and its
// Network. Where simwindow's fault grammar scripts *environmental*
// faults (sector-down, load surges — things that happen to the network),
// chaos scripts *delivery* faults: pushes that error or stall, KPI
// reports that never arrive, KPIs that breach the floor, and crashes at
// the exact protocol points where recovery semantics differ. The two
// grammars compose — Split partitions one comma-separated script into
// the chaos plan and the simwindow fault list — so a single -faults
// string can say "the push to step 2 fails twice AND sector 17 goes
// dark at tick 5".
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"magus/internal/executor"
	"magus/internal/simwindow"
)

// Kind is a chaos fault kind.
type Kind int

const (
	// KindPushError fails a step's push (transient; retries may clear it).
	KindPushError Kind = iota
	// KindPushDelay stalls a step's push by a fixed duration.
	KindPushDelay
	// KindKPILoss drops a step's KPI reports (Observe errors).
	KindKPILoss
	// KindKPIBreach depresses a step's observed utility below the
	// floor; with Count 0 the breach is sustained — the canonical
	// injected floor breach that must trip halt+rollback.
	KindKPIBreach
	// KindCrashBeforePush ... KindCrashAfterCommit kill the run at the
	// matching executor.CrashPoint of the given step, once.
	KindCrashBeforePush
	KindCrashBeforeCommit
	KindCrashAfterCommit
)

var kindNames = map[Kind]string{
	KindPushError:         "push-error",
	KindPushDelay:         "push-delay",
	KindKPILoss:           "kpi-loss",
	KindKPIBreach:         "kpi-breach",
	KindCrashBeforePush:   "crash-before-push",
	KindCrashBeforeCommit: "crash-before-commit",
	KindCrashAfterCommit:  "crash-after-commit",
}

var namedKinds = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("chaos.Kind(%d)", int(k))
}

// Fault is one scripted delivery fault, bound to a runbook step.
type Fault struct {
	Kind Kind `json:"kind"`
	// Step is the 1-based runbook step the fault binds to.
	Step int `json:"step"`
	// Count is how many times the fault fires (push-error, kpi-loss,
	// kpi-breach). 0 means the kind's default: once, except kpi-breach
	// where 0 means sustained forever.
	Count int `json:"count,omitempty"`
	// Delay is the stall length for push-delay faults.
	Delay time.Duration `json:"delay,omitempty"`
}

// String renders the fault in the grammar Parse accepts.
func (f Fault) String() string {
	s := fmt.Sprintf("%s@%d", f.Kind, f.Step)
	switch f.Kind {
	case KindPushDelay:
		s += fmt.Sprintf("+%d", f.Delay/time.Millisecond)
	case KindPushError, KindKPILoss, KindKPIBreach:
		if f.Count > 0 {
			s += fmt.Sprintf("x%d", f.Count)
		}
	}
	return s
}

// Plan is a full fault plan. The zero value injects nothing.
type Plan struct {
	Faults []Fault
}

// String renders the plan as a parseable comma-separated script.
func (p Plan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// HasCrash reports whether the plan contains any crash-point fault.
func (p Plan) HasCrash() bool {
	for _, f := range p.Faults {
		switch f.Kind {
		case KindCrashBeforePush, KindCrashBeforeCommit, KindCrashAfterCommit:
			return true
		}
	}
	return false
}

// ParseFault parses one fault:
//
//	push-error@STEP[xN]     push to STEP fails (N times, default 1)
//	push-delay@STEP+MS      push to STEP stalls MS milliseconds
//	kpi-loss@STEP[xN]       STEP's KPI reports lost (N times, default 1)
//	kpi-breach@STEP[xN]     STEP's utility forced below floor (N samples;
//	                        no xN = sustained for the rest of the run)
//	crash-before-push@STEP, crash-before-commit@STEP,
//	crash-after-commit@STEP kill the run at that protocol point, once
func ParseFault(s string) (Fault, error) {
	s = strings.TrimSpace(s)
	name, rest, ok := strings.Cut(s, "@")
	if !ok {
		return Fault{}, fmt.Errorf("chaos: fault %q: want kind@step", s)
	}
	kind, ok := namedKinds[name]
	if !ok {
		return Fault{}, fmt.Errorf("chaos: unknown fault kind %q", name)
	}
	f := Fault{Kind: kind}
	switch kind {
	case KindPushDelay:
		stepStr, msStr, ok := strings.Cut(rest, "+")
		if !ok {
			return Fault{}, fmt.Errorf("chaos: fault %q: want push-delay@STEP+MS", s)
		}
		step, err := strconv.Atoi(stepStr)
		if err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad step: %v", s, err)
		}
		ms, err := strconv.Atoi(msStr)
		// A delay past time.Duration's range would wrap negative.
		if err != nil || ms <= 0 || time.Duration(ms) > math.MaxInt64/time.Millisecond {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad delay %q", s, msStr)
		}
		f.Step = step
		f.Delay = time.Duration(ms) * time.Millisecond
	case KindPushError, KindKPILoss, KindKPIBreach:
		stepStr, countStr, repeated := strings.Cut(rest, "x")
		step, err := strconv.Atoi(stepStr)
		if err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad step: %v", s, err)
		}
		f.Step = step
		if repeated {
			n, err := strconv.Atoi(countStr)
			if err != nil || n <= 0 {
				return Fault{}, fmt.Errorf("chaos: fault %q: bad count %q", s, countStr)
			}
			f.Count = n
		} else if kind != KindKPIBreach {
			f.Count = 1
		}
	default: // crash points
		step, err := strconv.Atoi(rest)
		if err != nil {
			return Fault{}, fmt.Errorf("chaos: fault %q: bad step: %v", s, err)
		}
		f.Step = step
	}
	if f.Step < 1 {
		return Fault{}, fmt.Errorf("chaos: fault %q: steps are 1-based", s)
	}
	return f, nil
}

// Parse parses a comma-separated chaos script into a plan.
func Parse(s string) (Plan, error) {
	var p Plan
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		f, err := ParseFault(part)
		if err != nil {
			return Plan{}, err
		}
		p.Faults = append(p.Faults, f)
	}
	return p, nil
}

// Split partitions one combined fault script into the chaos plan
// (delivery faults, injected at the Network boundary) and the timed
// simwindow faults (environmental, handed to the live session). Any
// token that is not a chaos kind falls through to simwindow.ParseFault,
// so existing -faults scripts keep working verbatim.
func Split(s string) (Plan, []simwindow.Fault, error) {
	var plan Plan
	var timed []simwindow.Fault
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, _, _ := strings.Cut(part, "@")
		if _, ok := namedKinds[name]; ok {
			f, err := ParseFault(part)
			if err != nil {
				return Plan{}, nil, err
			}
			plan.Faults = append(plan.Faults, f)
			continue
		}
		f, err := simwindow.ParseFault(part)
		if err != nil {
			return Plan{}, nil, err
		}
		timed = append(timed, f)
	}
	return plan, timed, nil
}

// Rates parameterize Generate: per-step probabilities of each delivery
// fault kind.
type Rates struct {
	// PushError, PushDelay and KPILoss are per-step probabilities in
	// [0, 1].
	PushError float64
	PushDelay float64
	KPILoss   float64
	// Delay is the stall applied to generated push-delay faults
	// (default 5ms — benchmarks keep it tiny so wall clock measures the
	// protocol, not the sleep).
	Delay time.Duration
}

// Generate derives a deterministic fault plan for a runbook of `steps`
// steps: equal seeds, steps and rates yield the identical plan. Each
// generated push-error or kpi-loss fault fires once, inside the
// executor's retry and sample-loss budgets. Crash and breach faults are
// never generated — those are scripted deliberately, not sampled.
func Generate(seed int64, steps int, r Rates) Plan {
	if r.Delay <= 0 {
		r.Delay = 5 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(seed))
	var p Plan
	for step := 1; step <= steps; step++ {
		// One draw per fault kind per step, in fixed order, so the plan
		// depends only on (seed, steps, rates).
		if rng.Float64() < r.PushError {
			p.Faults = append(p.Faults, Fault{Kind: KindPushError, Step: step, Count: 1})
		}
		if rng.Float64() < r.PushDelay {
			p.Faults = append(p.Faults, Fault{Kind: KindPushDelay, Step: step, Delay: r.Delay})
		}
		if rng.Float64() < r.KPILoss {
			p.Faults = append(p.Faults, Fault{Kind: KindKPILoss, Step: step, Count: 1})
		}
	}
	sort.SliceStable(p.Faults, func(i, j int) bool { return p.Faults[i].Step < p.Faults[j].Step })
	return p
}

// crashKey maps a chaos crash fault to its executor protocol point.
var crashPoints = map[Kind]executor.CrashPoint{
	KindCrashBeforePush:   executor.CrashBeforePush,
	KindCrashBeforeCommit: executor.CrashBeforeCommit,
	KindCrashAfterCommit:  executor.CrashAfterCommit,
}
