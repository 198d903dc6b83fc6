package campaign

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"magus/internal/core"
	"magus/internal/topology"
	"magus/internal/upgrade"
)

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// runCampaign submits specs, waits for the campaign and checks every
// job is done.
func runCampaign(t *testing.T, o *Orchestrator, specs []JobSpec) Snapshot {
	t.Helper()
	c, err := o.Submit(specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("campaign did not finish: %v", err)
	}
	snap := c.Snapshot()
	for _, j := range snap.Jobs {
		if j.State != "done" || j.Result == nil {
			t.Fatalf("job %d: state=%s err=%q", j.ID, j.State, j.Error)
		}
	}
	return snap
}

// TestWarmColdCampaign: a 27-job campaign over three never-built
// markets builds each market exactly once, warm builds and job builds
// included, and its results equal a serial run that warms nothing.
func TestWarmColdCampaign(t *testing.T) {
	cache := NewEngineCache(8)
	o, err := New(Config{Build: testBuild(cache), Cache: cache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	got := runCampaign(t, o, fullFactorial())
	if st := cache.Stats(); st.Builds != 3 {
		t.Errorf("engine builds = %d, want 3 (stats %+v)", st.Builds, st)
	}

	serial, err := New(Config{Build: testBuild(NewEngineCache(8)), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	want := runCampaign(t, serial, fullFactorial())
	for i := range want.Jobs {
		if !reflect.DeepEqual(got.Jobs[i].Result, want.Jobs[i].Result) {
			t.Errorf("job %d (%s %s %s): result %+v, serial %+v", i, want.Jobs[i].Class,
				want.Jobs[i].Scenario, want.Jobs[i].Method, got.Jobs[i].Result, want.Jobs[i].Result)
		}
	}
}

// blockerSeed marks the market whose builds hold the workers and a
// warm slot in the tests below; its builds wait in the Build hook,
// before the cache, so the cache never reports it as held.
const blockerSeed = 99

// blockerJobs returns n jobs against the blocker market.
func blockerJobs(n int) []JobSpec {
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = JobSpec{Class: topology.Suburban, Seed: blockerSeed, Scenario: upgrade.SingleSector, Method: core.PowerOnly}
	}
	return specs
}

// TestWarmFailedBuildNotCached: a warm build that fails leaves nothing
// in the cache, and the job of that market builds again under its own
// attempt budget, retrying a transient failure as it always has.
func TestWarmFailedBuildNotCached(t *testing.T) {
	cache := NewEngineCache(8)
	real := testBuild(cache)
	release := make(chan struct{})
	var blocked, marketBuilds atomic.Int64
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		if seed == blockerSeed {
			blocked.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return real(ctx, class, seed)
		}
		cfg := testSetup(class, seed)
		key := EngineKey{Class: class, Seed: seed, SpecHash: SpecHash(cfg)}
		return cache.GetOrBuild(key, func() (*core.Engine, error) {
			if marketBuilds.Add(1) <= 2 {
				return nil, Transient(errors.New("backend hiccup"))
			}
			return core.NewEngine(cfg)
		})
	}
	o, err := New(Config{Build: build, Cache: cache, Workers: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	// Both workers and one warm slot wait on the blocker market.
	blockers, err := o.Submit(blockerJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker builds", func() bool { return blocked.Load() == 3 })

	// The second warm slot builds the rural market while its job waits
	// in the queue; the build fails and is dropped.
	c, err := o.Submit([]JobSpec{{Class: topology.Rural, Seed: 1, Scenario: upgrade.SingleSector, Method: core.PowerOnly}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "failed warm build", func() bool {
		return marketBuilds.Load() == 1 && !cache.holds(topology.Rural, 1)
	})
	if st := c.Snapshot().Jobs[0].State; st != "queued" {
		t.Fatalf("job state = %s while the workers are blocked, want queued", st)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := blockers.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	j := c.Snapshot().Jobs[0]
	if j.State != "done" || j.Attempts != 2 {
		t.Fatalf("state=%s attempts=%d err=%q, want done after 2 attempts", j.State, j.Attempts, j.Error)
	}
	if n := marketBuilds.Load(); n != 3 {
		t.Errorf("rural builds = %d, want 3 (warm, failed attempt, successful attempt)", n)
	}
}

// TestCloseWaitsForWarmBuild: Close does not return while a warm build
// is running, even one that ignores its context as a real model build
// does.
func TestCloseWaitsForWarmBuild(t *testing.T) {
	cache := NewEngineCache(8)
	var blocked atomic.Int64
	warmStarted := make(chan struct{})
	release := make(chan struct{})
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		if seed == blockerSeed {
			blocked.Add(1)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		cfg := testSetup(class, seed)
		key := EngineKey{Class: class, Seed: seed, SpecHash: SpecHash(cfg)}
		return cache.GetOrBuild(key, func() (*core.Engine, error) {
			close(warmStarted)
			<-release
			return core.NewEngine(cfg)
		})
	}
	o, err := New(Config{Build: build, Cache: cache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(blockerJobs(2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker builds", func() bool { return blocked.Load() == 3 })
	c, err := o.Submit([]JobSpec{{Class: topology.Urban, Seed: 1, Scenario: upgrade.SingleSector, Method: core.TiltOnly}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-warmStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("warm build never started")
	}

	closed := make(chan struct{})
	go func() {
		o.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a warm build was running")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the warm build ended")
	}
	if st := c.Snapshot().Jobs[0].State; st != "cancelled" {
		t.Errorf("job state = %s, want cancelled (it never ran)", st)
	}
}

// TestDrainingWarmsNothing: once a drain begins, a campaign's warm
// builds that have not started never start.
func TestDrainingWarmsNothing(t *testing.T) {
	cache := NewEngineCache(8)
	real := testBuild(cache)
	var blocked, ruralBuilds atomic.Int64
	release := make(chan struct{})
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		switch {
		case seed == blockerSeed:
			blocked.Add(1)
			<-release
		case class == topology.Rural:
			ruralBuilds.Add(1)
		}
		return real(ctx, class, seed)
	}
	o, err := New(Config{Build: build, Cache: cache, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	// The one worker and the one warm slot wait on the blocker market;
	// the rural campaign's warm build queues behind them.
	if _, err := o.Submit(blockerJobs(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker builds", func() bool { return blocked.Load() == 2 })
	c, err := o.Submit([]JobSpec{{Class: topology.Rural, Seed: 1, Scenario: upgrade.SingleSector, Method: core.PowerOnly}})
	if err != nil {
		t.Fatal(err)
	}

	report := make(chan DrainReport)
	go func() { report <- o.Drain(context.Background()) }()
	waitFor(t, "drain", func() bool { return o.Metrics().Draining })
	close(release)
	var r DrainReport
	select {
	case r = <-report:
	case <-time.After(time.Minute):
		t.Fatal("drain did not finish")
	}
	if n := ruralBuilds.Load(); n != 0 {
		t.Errorf("rural market built %d times during the drain, want 0", n)
	}
	if r.Requeued != 1 || c.Snapshot().Jobs[0].State != "queued" {
		t.Errorf("drain report %+v, rural job %s; want it parked", r, c.Snapshot().Jobs[0].State)
	}
	if _, err := o.Submit(blockerJobs(1)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while drained: err = %v, want ErrDraining", err)
	}
}
