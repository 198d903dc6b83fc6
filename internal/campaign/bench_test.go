package campaign

import (
	"context"
	"testing"
	"time"
)

// BenchmarkCampaignThroughput meters the orchestrator end to end: a
// 27-job campaign (3 classes x 3 scenarios x 3 methods) over miniature
// markets per iteration. The engine cache persists across iterations, so
// after the first the benchmark isolates queueing + planning throughput.
func BenchmarkCampaignThroughput(b *testing.B) {
	cache := NewEngineCache(8)
	o, err := New(Config{Build: testBuild(cache), Cache: cache, SkipMigration: true})
	if err != nil {
		b.Fatal(err)
	}
	defer o.Close()

	specs := fullFactorial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := o.Submit(specs)
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		if err := c.Wait(ctx); err != nil {
			cancel()
			b.Fatal(err)
		}
		cancel()
		if snap := c.Snapshot(); snap.Counts["done"] != len(specs) {
			b.Fatalf("counts = %v", snap.Counts)
		}
	}
	b.ReportMetric(float64(len(specs)), "jobs/op")
}

// BenchmarkCampaignCold meters a cold campaign end to end: one 27-job
// campaign (3 classes x 3 scenarios x 3 methods, seed 1) over
// default-spec markets per op, on a fresh Env so that every market is
// built inside the op, with the orchestrator's default workers and the
// gradual migration after each plan. Markets build while other markets'
// jobs run (see Orchestrator.warm), so the op is bounded by CPU rather
// than by three builds back to back.
func BenchmarkCampaignCold(b *testing.B) {
	specs := fullFactorial()
	for i := 0; i < b.N; i++ {
		env := &Env{Engines: NewEngineCache(0)}
		o, err := New(Config{Build: env.Engine, Cache: env.Engines})
		if err != nil {
			b.Fatal(err)
		}
		c, err := o.Submit(specs)
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		err = c.Wait(ctx)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		o.Close()
		if snap := c.Snapshot(); snap.Counts["done"] != len(specs) {
			b.Fatalf("counts = %v", snap.Counts)
		}
		if st := env.Engines.Stats(); st.Builds != 3 {
			b.Fatalf("engine builds = %d, want 3", st.Builds)
		}
	}
	b.ReportMetric(float64(len(specs)), "jobs/op")
}
