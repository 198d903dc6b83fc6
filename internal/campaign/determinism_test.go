package campaign

import (
	"context"
	"math"
	"testing"
	"time"

	"magus/internal/core"
	"magus/internal/topology"
)

// TestHotCampaignsDeterministicUnderSeason: two 27-job campaigns on
// already built markets, run concurrently with a replayed wave season
// on one engine cache and with two scoring workers per search, must
// give every job bit for bit the recovery a campaign run alone gives,
// on every round. A plan that depended on timing (shared engine state
// written by a concurrent job, a reduction summed in completion order)
// would show here as a recovery that moves between rounds.
func TestHotCampaignsDeterministicUnderSeason(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 7 campaigns and 3 seasons")
	}
	cache := NewEngineCache(8)
	o, err := New(Config{Build: testBuild(cache), Cache: cache, Workers: 4, SearchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	run := func(specs []JobSpec) *Campaign {
		t.Helper()
		c, err := o.Submit(specs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	finish := func(c *Campaign) Snapshot {
		t.Helper()
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("campaign %s did not finish: %v", c.ID, err)
		}
		snap := c.Snapshot()
		for _, j := range snap.Jobs {
			if j.State != "done" || j.Result == nil {
				t.Fatalf("campaign %s job %d: state=%s err=%q", c.ID, j.ID, j.State, j.Error)
			}
		}
		return snap
	}

	// The reference builds the three markets and plans alone.
	ref := finish(run(fullFactorial()))
	season := []JobSpec{{
		Kind:   KindWave,
		Class:  topology.Suburban,
		Seed:   1,
		Method: core.TiltOnly,
		Wave:   &WaveSpec{Replay: true},
	}}
	for round := 0; round < 3; round++ {
		season[0].AnnealSeed = int64(1 + round)
		hot := []*Campaign{run(fullFactorial()), run(fullFactorial())}
		waves := run(season)
		for _, c := range hot {
			snap := finish(c)
			for i, j := range snap.Jobs {
				got, want := j.Result.Recovery, ref.Jobs[i].Result.Recovery
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("round %d campaign %s job %d (%s %s %s): recovery %v, alone %v",
						round, c.ID, j.ID, j.Class, j.Scenario, j.Method, got, want)
				}
			}
		}
		if w := finish(waves).Jobs[0].Result.Wave; w == nil || len(w.Waves) == 0 {
			t.Fatalf("round %d: season has no waves", round)
		}
	}
}
