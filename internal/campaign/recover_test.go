package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"magus/internal/core"
	"magus/internal/journal"
	"magus/internal/topology"
	"magus/internal/upgrade"
)

// sixJobs is a six-job single-market campaign (engines build once and
// cache-hit after).
func sixJobs() []JobSpec {
	specs := make([]JobSpec, 6)
	for i := range specs {
		specs[i] = JobSpec{Class: topology.Suburban, Seed: 1, Scenario: upgrade.SingleSector, Method: core.PowerOnly}
	}
	return specs
}

// TestCrashRecovery is the crash-recovery integration test of the
// lifecycle WAL: run 1 completes two jobs and dies with one in flight
// and three queued; run 2 replays the journal, re-enqueues exactly the
// four unfinished jobs, and finishes them. No job that completed in run
// 1 runs again.
func TestCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jr, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Builds 1-2 (jobs 0 and 1; the second is a cache hit) succeed; any
	// later build hangs until its context dies — the job the crash
	// catches in flight.
	cache := NewEngineCache(4)
	var builds atomic.Int32
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		if builds.Add(1) > 2 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return testBuild(cache)(ctx, class, seed)
	}
	o, err := New(Config{Build: build, Workers: 1, Journal: jr, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(sixJobs()); err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker is stuck inside job 2's build: jobs 0
	// and 1 are then done and journaled.
	deadline := time.Now().Add(30 * time.Second)
	for builds.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached the blocking build")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Hard stop: like a crash, shutdown-cancelled jobs leave no terminal
	// record.
	o.Close()
	jr.Close()

	pending, err := ReplayJournal(path)
	if err != nil {
		t.Fatalf("ReplayJournal: %v", err)
	}
	if len(pending) != 4 {
		t.Fatalf("replayed %d pending jobs, want 4: %+v", len(pending), pending)
	}
	for _, p := range pending {
		if p.Job < 2 {
			t.Errorf("job %d completed in run 1 but was replayed (would run twice)", p.Job)
		}
		if p.Spec.Class != topology.Suburban || p.Spec.Seed != 1 {
			t.Errorf("job %d spec corrupted in replay: %+v", p.Job, p.Spec)
		}
	}

	// Run 2: fresh orchestrator over the same journal finishes the
	// recovered jobs.
	jr2, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	o2, err := New(Config{Build: testBuild(cache), Workers: 2, Journal: jr2})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	cs, err := o2.Resubmit(pending)
	if err != nil {
		t.Fatalf("Resubmit: %v", err)
	}
	if len(cs) != 1 {
		t.Fatalf("resubmitted %d campaigns, want 1 (all pending jobs shared one)", len(cs))
	}
	if err := o2.CompactJournal(); err != nil {
		t.Fatalf("CompactJournal: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, c := range cs {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("recovered campaign did not finish: %v", err)
		}
		snap := c.Snapshot()
		if snap.Counts["done"] != 4 {
			t.Fatalf("recovered campaign counts = %v, want 4 done", snap.Counts)
		}
	}

	// Every journaled job is now terminal: a further replay finds
	// nothing to do.
	if err := jr2.Sync(); err != nil {
		t.Fatal(err)
	}
	left, err := ReplayJournal(path)
	if err != nil {
		t.Fatalf("ReplayJournal after recovery: %v", err)
	}
	if len(left) != 0 {
		t.Fatalf("%d jobs still pending after recovery: %+v", len(left), left)
	}
}

// TestDrainParksUnfinishedJobs: a drain whose deadline expires with a
// job mid-run parks everything unfinished for replay and refuses new
// admissions.
func TestDrainParksUnfinishedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jr, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()

	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	o, err := New(Config{Build: build, Workers: 1, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(sixJobs()[:3]); err != nil {
		t.Fatal(err)
	}
	// Let the worker pick up job 0 before draining.
	waitForRunning(t, o, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rep := o.Drain(ctx)
	if rep.Requeued != 3 || rep.Completed != 0 {
		t.Fatalf("drain report = %+v, want 3 requeued, 0 completed", rep)
	}
	if _, err := o.Submit(sixJobs()[:1]); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain: %v, want ErrDraining", err)
	}
	if !o.Metrics().Draining {
		t.Error("metrics do not report draining")
	}

	pending, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 3 {
		t.Fatalf("replayed %d pending jobs after drain, want 3", len(pending))
	}
}

// TestDrainLetsRunningJobsFinish: with a generous deadline, in-flight
// work completes and is journaled terminal; nothing is requeued.
func TestDrainLetsRunningJobsFinish(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jr, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()

	cache := NewEngineCache(4)
	gate := make(chan struct{})
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return testBuild(cache)(ctx, class, seed)
	}
	o, err := New(Config{Build: build, Workers: 2, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	c, err := o.Submit(sixJobs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	// Both jobs must be in flight before the drain starts, or it would
	// (correctly) park them as queued instead of waiting them out.
	waitForRunning(t, o, 2)
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep := o.Drain(ctx)
	if rep.Requeued != 0 {
		t.Fatalf("drain report = %+v, want 0 requeued", rep)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign not finished after drain")
	}
	if got := c.Snapshot().Counts["done"]; got != 2 {
		t.Fatalf("done = %d, want 2", got)
	}
	pending, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("replayed %d pending jobs after clean drain, want 0", len(pending))
	}
}

// TestCancelledJobsAreTerminalInJournal: a user cancel is deliberate —
// replay must not resurrect the cancelled jobs.
func TestCancelledJobsAreTerminalInJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jr, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()

	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	o, err := New(Config{Build: build, Workers: 1, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	c, err := o.Submit(sixJobs()[:3])
	if err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, o, 1)
	c.Cancel("operator says no")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("cancelled campaign did not settle: %v", err)
	}
	if err := jr.Sync(); err != nil {
		t.Fatal(err)
	}
	pending, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("cancelled jobs replayed as pending: %+v", pending)
	}
}

// TestBackoffWaitHonorsCancellation is the regression test for the
// retry backoff: with a multi-second backoff pending, cancelling the
// campaign must end the job immediately, not after the backoff expires.
func TestBackoffWaitHonorsCancellation(t *testing.T) {
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		return nil, Transient(errors.New("flaky backend"))
	}
	o, err := New(Config{Build: build, Workers: 1, MaxAttempts: 5, RetryBackoff: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	c, err := o.Submit(sixJobs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, o, 1)
	// The first attempt fails instantly; the worker is now in the 30s
	// backoff wait.
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	c.Cancel("user abort")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("job still waiting out its backoff after cancel: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v to cut the backoff wait short", elapsed)
	}
	if got := c.Snapshot().Counts["cancelled"]; got != 1 {
		t.Fatalf("counts = %v, want 1 cancelled", c.Snapshot().Counts)
	}
}

// TestJournalCompactionThreshold: finishing a campaign past the record
// threshold compacts the log down to just the still-pending jobs.
func TestJournalCompactionThreshold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jr, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()

	cache := NewEngineCache(4)
	o, err := New(Config{Build: testBuild(cache), Workers: 1, Journal: jr, CompactRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	c, err := o.Submit(sixJobs()[:3])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// finishLocked kicked off an async compaction; with nothing pending
	// the log should shrink to zero records.
	deadline := time.Now().Add(10 * time.Second)
	for jr.Records() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("journal still has %d records, compaction never ran", jr.Records())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalFencedRecovery: two orchestrators replay the same journal
// after a crash — the split-brain a hung-but-alive process or a doubled
// restart produces. Only the latest epoch claimant may resubmit; the
// stale claimant's Resubmit is rejected outright, so every recovered
// job produces exactly one set of campaign results.
func TestJournalFencedRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jr, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Run 1 crashes with every job still pending: builds hang until the
	// crash (Close) cancels them.
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	o, err := New(Config{Build: build, Workers: 1, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(sixJobs()[:3]); err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, o, 1)
	o.Close()
	jr.Close()

	// Both would-be successors replay the same log and see the same
	// pending work.
	pendingA, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	pendingB, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pendingA) != 3 || len(pendingB) != 3 {
		t.Fatalf("replayed %d/%d pending jobs, want 3/3", len(pendingA), len(pendingB))
	}

	jrA, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jrA.Close()
	epochA, err := jrA.ClaimEpoch()
	if err != nil {
		t.Fatal(err)
	}
	var buildsA atomic.Int32
	countingBuildA := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		buildsA.Add(1)
		return testBuild(NewEngineCache(4))(ctx, class, seed)
	}
	orchA, err := New(Config{Build: countingBuildA, Workers: 1, Journal: jrA, Epoch: epochA})
	if err != nil {
		t.Fatal(err)
	}
	defer orchA.Close()

	// B claims after A: A is now the stale epoch.
	jrB, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jrB.Close()
	epochB, err := jrB.ClaimEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if epochB <= epochA {
		t.Fatalf("epochs not increasing: A=%d B=%d", epochA, epochB)
	}
	cache := NewEngineCache(4)
	orchB, err := New(Config{Build: testBuild(cache), Workers: 2, Journal: jrB, Epoch: epochB})
	if err != nil {
		t.Fatal(err)
	}
	defer orchB.Close()

	// The stale claimant is fenced: Resubmit rejected, nothing runs, no
	// fresh admissions either.
	if _, err := orchA.Resubmit(pendingA); !errors.Is(err, journal.ErrStaleEpoch) {
		t.Fatalf("stale Resubmit = %v, want ErrStaleEpoch", err)
	}
	if _, err := orchA.Submit(sixJobs()[:1]); !errors.Is(err, journal.ErrStaleEpoch) {
		t.Fatalf("stale Submit = %v, want ErrStaleEpoch", err)
	}
	if got := buildsA.Load(); got != 0 {
		t.Fatalf("fenced orchestrator executed %d builds, want 0", got)
	}

	// The current claimant recovers and finishes the work, exactly once.
	cs, err := orchB.Resubmit(pendingB)
	if err != nil {
		t.Fatalf("current-epoch Resubmit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := 0
	for _, c := range cs {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("recovered campaign did not finish: %v", err)
		}
		done += c.Snapshot().Counts["done"]
	}
	if done != 3 {
		t.Fatalf("recovered %d done jobs, want 3", done)
	}
	if err := jrB.Sync(); err != nil {
		t.Fatal(err)
	}
	left, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d jobs still pending after fenced recovery: %+v", len(left), left)
	}
}

// TestFencingSuppressesStaleResults: an orchestrator whose epoch goes
// stale mid-run must not journal the terminal states of jobs it still
// finishes — the new claimant owns those jobs now, and a late "done"
// record would erase them from its replay.
func TestFencingSuppressesStaleResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jr, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	epoch, err := jr.ClaimEpoch()
	if err != nil {
		t.Fatal(err)
	}

	cache := NewEngineCache(4)
	gate := make(chan struct{})
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return testBuild(cache)(ctx, class, seed)
	}
	o, err := New(Config{Build: build, Workers: 1, Journal: jr, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	c, err := o.Submit(sixJobs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, o, 1)

	// Another process claims the journal while the job is mid-build.
	jr2, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if _, err := jr2.ClaimEpoch(); err != nil {
		t.Fatal(err)
	}

	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().Counts["done"]; got != 1 {
		t.Fatalf("done = %d, want 1 (execution itself is not fenced)", got)
	}
	if got := o.Metrics().FencedResults; got != 1 {
		t.Fatalf("FencedResults = %d, want 1", got)
	}
	// The suppressed terminal record leaves the job pending for the new
	// owner's replay.
	if err := jr.Sync(); err != nil {
		t.Fatal(err)
	}
	pending, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 {
		t.Fatalf("replay found %d pending jobs, want 1 (stale result must not commit)", len(pending))
	}
}

// waitForRunning polls until n jobs are running.
func waitForRunning(t *testing.T, o *Orchestrator, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		o.mu.Lock()
		running := o.jobCounts[JobRunning]
		o.mu.Unlock()
		if running >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d jobs running, want %d", running, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCompactionKeepsConcurrentResult pins the compaction race: a job
// still running when the compaction snapshots the pending jobs finishes
// and journals its result before the rewrite. The result must survive
// in the rewritten log, or a restart would run a finished job again.
// The snapshot hook lets the job finish and waits (briefly) for its
// result to reach the file; a snapshot taken outside the journal's lock
// lets that append into the old log, which the rewrite then discards.
func TestCompactionKeepsConcurrentResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jr, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewEngineCache(1)
	entered, release := make(chan struct{}), make(chan struct{})
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		close(entered)
		<-release
		return testBuild(cache)(ctx, class, seed)
	}
	o, err := New(Config{Build: build, Workers: 1, Journal: jr, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	c, err := o.Submit(sixJobs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	compactSnapshotHook = func() {
		compactSnapshotHook = nil
		size0 := fileSize(t, path)
		close(release)
		for deadline := time.Now().Add(60 * time.Second); c.Snapshot().Jobs[0].State != JobDone.String(); {
			if time.Now().After(deadline) {
				t.Error("job never finished")
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
			if fileSize(t, path) > size0 {
				return // the result is on disk ahead of the rewrite
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	defer func() { compactSnapshotHook = nil }()
	if err := o.CompactJournal(); err != nil {
		t.Fatalf("CompactJournal: %v", err)
	}
	select {
	case <-c.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("campaign never finished")
	}
	o.Close()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	pending, err := ReplayJournal(path)
	if err != nil {
		t.Fatalf("ReplayJournal: %v", err)
	}
	if len(pending) != 0 {
		t.Fatalf("a job finished during compaction replays as pending (would run twice): %+v", pending)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestDoneWaitsForJournaledResults: a campaign reads as finished only
// once every terminal result is in the journal. A compaction whose
// snapshot blocks holds the journal's lock while a queued job is
// cancelled: the job turns cancelled at once, but Done must stay open
// until its result record is appended — a caller that replays the
// journal after Done would otherwise run the job again.
func TestDoneWaitsForJournaledResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jr, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The single worker stays inside the first campaign's build until
	// that campaign is cancelled, so the second campaign's job queues.
	entered := make(chan struct{})
	var once sync.Once
	build := func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		once.Do(func() { close(entered) })
		<-ctx.Done()
		return nil, ctx.Err()
	}
	o, err := New(Config{Build: build, Workers: 1, Journal: jr, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	busy, err := o.Submit(sixJobs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	c, err := o.Submit(sixJobs()[:1])
	if err != nil {
		t.Fatal(err)
	}

	held, release := make(chan struct{}), make(chan struct{})
	compacted := make(chan error, 1)
	go func() {
		compacted <- jr.Compact(func() []journal.Record {
			close(held)
			<-release
			return o.pendingRecords()
		})
	}()
	<-held
	cancelled := make(chan struct{})
	go func() {
		c.Cancel("test")
		close(cancelled)
	}()
	for deadline := time.Now().Add(10 * time.Second); c.Snapshot().Jobs[0].State != JobCancelled.String(); {
		if time.Now().After(deadline) {
			t.Fatal("queued job never turned cancelled")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-c.Done():
		t.Fatal("campaign reads finished before its cancelled job's result is journaled")
	default:
	}
	close(release)
	if err := <-compacted; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	<-cancelled
	for _, cc := range []*Campaign{c, busy} {
		cc.Cancel("test")
		select {
		case <-cc.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("campaign %s never finished", cc.ID)
		}
	}
	o.Close()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	pending, err := ReplayJournal(path)
	if err != nil {
		t.Fatalf("ReplayJournal: %v", err)
	}
	if len(pending) != 0 {
		t.Fatalf("cancelled jobs replay as pending: %+v", pending)
	}
}
