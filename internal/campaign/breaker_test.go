package campaign

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"magus/internal/core"
	"magus/internal/topology"
	"magus/internal/upgrade"
)

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := newBreaker(3, time.Minute)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	key := market{topology.Suburban, 1}
	boom := errors.New("boom")

	for i := 0; i < 3; i++ {
		if err := b.allow(key); err != nil {
			t.Fatalf("failure %d: circuit open early: %v", i, err)
		}
		b.observe(key, boom)
	}
	if err := b.allow(key); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after threshold failures: %v, want ErrCircuitOpen", err)
	}
	if st := b.stats(); st.Open != 1 || st.Trips != 1 {
		t.Fatalf("stats = %+v, want 1 open, 1 trip", st)
	}

	// Cooldown elapsed: exactly one half-open probe gets through;
	// concurrent callers keep failing fast until it settles.
	now = now.Add(2 * time.Minute)
	if err := b.allow(key); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if err := b.allow(key); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second caller during probe: %v, want ErrCircuitOpen", err)
	}
	// Probe fails: another full cooldown.
	b.observe(key, boom)
	if err := b.allow(key); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after failed probe: %v, want ErrCircuitOpen", err)
	}
	// Probe succeeds after the next cooldown: circuit closes fully.
	now = now.Add(2 * time.Minute)
	if err := b.allow(key); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.observe(key, nil)
	if err := b.allow(key); err != nil {
		t.Fatalf("circuit still open after successful probe: %v", err)
	}
	if st := b.stats(); st.Open != 0 || st.Tracked != 0 {
		t.Fatalf("stats after recovery = %+v, want clean", st)
	}
}

func TestBreakerIgnoresContextCancellation(t *testing.T) {
	b := newBreaker(2, time.Minute)
	key := market{topology.Urban, 7}
	for i := 0; i < 10; i++ {
		if err := b.allow(key); err != nil {
			t.Fatalf("cancellation %d tripped the breaker: %v", i, err)
		}
		b.observe(key, context.Canceled)
	}
	b.observe(key, context.DeadlineExceeded)
	if err := b.allow(key); err != nil {
		t.Fatalf("deadline tripped the breaker: %v", err)
	}
}

func TestBreakerIsPerMarket(t *testing.T) {
	b := newBreaker(1, time.Minute)
	bad := market{topology.Rural, 1}
	good := market{topology.Rural, 2}
	b.observe(bad, errors.New("boom"))
	if err := b.allow(bad); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("bad market: %v, want ErrCircuitOpen", err)
	}
	if err := b.allow(good); err != nil {
		t.Fatalf("healthy market caught the neighbor's trip: %v", err)
	}
}

// TestBreakerFailsJobsFast: once a market's builds trip the breaker,
// jobs against it fail immediately with ErrCircuitOpen instead of
// burning build attempts.
func TestBreakerFailsJobsFast(t *testing.T) {
	var builds atomic.Int32
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		builds.Add(1)
		return nil, errors.New("corrupt scenario data")
	}
	o, err := New(Config{Build: build, Workers: 1, BreakerThreshold: 2, BreakerCooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	spec := JobSpec{Class: topology.Suburban, Seed: 1, Scenario: upgrade.SingleSector, Method: core.PowerOnly}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Two failing jobs trip the circuit (errors are permanent, one
	// attempt each)...
	for i := 0; i < 2; i++ {
		c, err := o.Submit([]JobSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("builds = %d, want 2", got)
	}
	// ...so the third fails fast without another build.
	c, err := o.Submit([]JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("builds = %d after circuit opened, want still 2", got)
	}
	snap := c.Snapshot()
	if snap.Counts["failed"] != 1 {
		t.Fatalf("counts = %v, want 1 failed", snap.Counts)
	}
	if !strings.Contains(snap.Jobs[0].Error, "circuit open") {
		t.Fatalf("job error %q does not mention the open circuit", snap.Jobs[0].Error)
	}
	m := o.Metrics()
	if m.Breaker == nil || m.Breaker.Open != 1 || m.Breaker.Trips != 1 {
		t.Fatalf("breaker metrics = %+v, want 1 open / 1 trip", m.Breaker)
	}
}
