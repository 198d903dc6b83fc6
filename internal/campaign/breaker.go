package campaign

import (
	"context"
	"errors"
	"sync"
	"time"

	"magus/internal/core"
	"magus/internal/topology"
)

// ErrCircuitOpen reports that a market's engine builds have failed
// repeatedly and the breaker is cooling down; jobs against that market
// fail fast instead of hot-looping the worker pool. The error is not
// Transient on purpose — retrying before the cooldown elapses is
// exactly the loop the breaker exists to break.
var ErrCircuitOpen = errors.New("campaign: engine build circuit open")

// breakerDefaults.
const (
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 30 * time.Second
)

// market is one (Class, Seed) pair that jobs build an engine for: the
// breaker's key and the unit warm builds go by.
type market struct {
	class topology.AreaClass
	seed  int64
}

type breakerEntry struct {
	failures  int
	openUntil time.Time
	probing   bool
}

// breaker is a per-market circuit breaker over engine builds:
// threshold consecutive failures open the circuit for cooldown, after
// which a single half-open probe decides between closing it again and
// another cooldown round.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	mu      sync.Mutex
	entries map[market]*breakerEntry
	trips   int64
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		entries:   make(map[market]*breakerEntry),
	}
}

// allow reports whether a build against key may proceed. In the open
// state it fails fast; once the cooldown elapses exactly one caller is
// admitted as the half-open probe while the rest keep failing fast
// until the probe settles the market's fate.
func (b *breaker) allow(key market) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil || e.failures < b.threshold {
		return nil
	}
	if b.now().Before(e.openUntil) {
		return ErrCircuitOpen
	}
	if e.probing {
		return ErrCircuitOpen
	}
	e.probing = true
	return nil
}

// observe records a build outcome. Context cancellation is neither a
// success nor a failure: the build did not get to prove anything.
func (b *breaker) observe(key market, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		b.mu.Lock()
		if e := b.entries[key]; e != nil {
			e.probing = false
		}
		b.mu.Unlock()
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		delete(b.entries, key)
		return
	}
	e := b.entries[key]
	if e == nil {
		e = &breakerEntry{}
		b.entries[key] = e
	}
	e.probing = false
	e.failures++
	if e.failures >= b.threshold {
		e.openUntil = b.now().Add(b.cooldown)
		if e.failures == b.threshold {
			b.trips++
		}
	}
}

// BreakerStats is the breaker's metrics snapshot.
type BreakerStats struct {
	// Open counts markets currently failing fast.
	Open int `json:"open"`
	// Tracked counts markets with at least one recent consecutive
	// failure.
	Tracked int `json:"tracked"`
	// Trips counts circuit openings since start.
	Trips int64 `json:"trips"`
	// Threshold and CooldownMS echo the configuration.
	Threshold  int     `json:"threshold"`
	CooldownMS float64 `json:"cooldown_ms"`
}

func (b *breaker) stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStats{
		Tracked:    len(b.entries),
		Trips:      b.trips,
		Threshold:  b.threshold,
		CooldownMS: float64(b.cooldown) / float64(time.Millisecond),
	}
	now := b.now()
	for _, e := range b.entries {
		if e.failures >= b.threshold && now.Before(e.openUntil) {
			st.Open++
		}
	}
	return st
}

// wrapBuild layers the breaker over an engine BuildFunc: open circuits
// fail fast with ErrCircuitOpen, everything else runs the build and
// feeds the outcome back.
func (b *breaker) wrapBuild(build BuildFunc) BuildFunc {
	return func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		key := market{class, seed}
		if err := b.allow(key); err != nil {
			return nil, err
		}
		engine, err := build(ctx, class, seed)
		b.observe(key, err)
		return engine, err
	}
}
