package experiments

import (
	"strings"
	"testing"
)

func TestRunHybridSweep(t *testing.T) {
	sweep, err := RunHybridSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results) != len(sweep.ErrorsDB) {
		t.Fatalf("results = %d, want %d", len(sweep.Results), len(sweep.ErrorsDB))
	}
	for i, r := range sweep.Results {
		// Hybrid never worsens the model-based starting point.
		if r.HybridUtility < r.ModelOnlyUtility-1e-9 {
			t.Errorf("error %v: hybrid %v below model-only %v",
				sweep.ErrorsDB[i], r.HybridUtility, r.ModelOnlyUtility)
		}
		// k <= K whenever feedback-only had anything to do.
		if r.FeedbackOnlySteps > 0 && r.HybridSteps > r.FeedbackOnlySteps {
			t.Errorf("error %v: k=%d exceeds K=%d",
				sweep.ErrorsDB[i], r.HybridSteps, r.FeedbackOnlySteps)
		}
	}
	if !strings.Contains(sweep.String(), "hybrid") {
		t.Error("sweep output missing header")
	}
}

func TestRunSignaling(t *testing.T) {
	cmp, err := RunSignaling(testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The gradual plan must never strain signaling harder than the
	// one-shot burst.
	if cmp.Gradual.MaxDelaySec > cmp.OneShot.MaxDelaySec {
		t.Errorf("gradual max delay %v above one-shot %v",
			cmp.Gradual.MaxDelaySec, cmp.OneShot.MaxDelaySec)
	}
	if cmp.Gradual.FailureFraction() > cmp.OneShot.FailureFraction() {
		t.Errorf("gradual failure fraction %v above one-shot %v",
			cmp.Gradual.FailureFraction(), cmp.OneShot.FailureFraction())
	}
	if !strings.Contains(cmp.String(), "signaling") {
		t.Error("signaling output missing header")
	}
}

func TestRunOutageStudy(t *testing.T) {
	study, err := RunOutageStudy(testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if study.Covered == 0 {
		t.Fatal("no sectors covered")
	}
	if len(study.Responses) != study.Covered {
		t.Fatalf("responses = %d, covered = %d", len(study.Responses), study.Covered)
	}
	for _, r := range study.Responses {
		if !r.Precomputed {
			t.Error("covered outage should hit the precomputed table")
		}
		if r.UtilityApplied < r.UtilityOutage-1e-9 {
			t.Error("applying the precomputed config worsened utility")
		}
		if r.UtilityRefined < r.UtilityApplied-1e-9 {
			t.Error("refinement worsened utility")
		}
	}
	if study.MeanExpectedRecovery <= 0 {
		t.Error("mean expected recovery should be positive")
	}
	if !strings.Contains(study.String(), "unplanned outages") {
		t.Error("outage output missing header")
	}
}

func TestRunLoadBalance(t *testing.T) {
	study, err := RunLoadBalance(testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := study.Result
	if len(r.Steps) > 0 && r.FinalMaxLoad >= r.InitialMaxLoad {
		t.Errorf("balancing accepted steps but max load did not drop: %v -> %v",
			r.InitialMaxLoad, r.FinalMaxLoad)
	}
	if r.UtilityLossFrac() > 0.011 {
		t.Errorf("utility sacrifice %v beyond bound", r.UtilityLossFrac())
	}
	if !strings.Contains(study.String(), "load balancing") {
		t.Error("loadbalance output missing header")
	}
}

func TestRunUEDistribution(t *testing.T) {
	study, err := RunUEDistribution(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range []float64{study.UniformRecovery, study.WeightedRecovery} {
		if rr < -0.05 || rr > 1.05 {
			t.Errorf("recovery %v outside [0, 1]", rr)
		}
	}
	if !strings.Contains(study.String(), "UE distribution") {
		t.Error("distribution output missing header")
	}
}

func TestRunMultiCarrier(t *testing.T) {
	study, err := RunMultiCarrier(1)
	if err != nil {
		t.Fatal(err)
	}
	// A second orthogonal carrier gives displaced users more places to
	// go: the upgrade hurts relatively less.
	if study.DualUpgradeDropFrac > study.SingleUpgradeDropFrac+1e-9 {
		t.Errorf("dual-carrier drop %v above single-carrier %v",
			study.DualUpgradeDropFrac, study.SingleUpgradeDropFrac)
	}
	for _, rr := range []float64{study.SingleRecovery, study.DualRecovery} {
		if rr < -0.05 || rr > 1.1 {
			t.Errorf("recovery %v outside sane range", rr)
		}
	}
	if !strings.Contains(study.String(), "multi-carrier") {
		t.Error("multicarrier output missing header")
	}
}

func TestRunOpsWeek(t *testing.T) {
	week, err := RunOpsWeek(testEnv, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(week.Events) == 0 {
		t.Fatal("no events handled")
	}
	for _, e := range week.Events {
		if e.Recovery < -0.05 || e.Recovery > 1.05 {
			t.Errorf("event recovery %v outside [0, 1]", e.Recovery)
		}
		if e.BurstMitigated > e.BurstOneShot+1e-9 {
			t.Errorf("gradual burst %v above one-shot %v", e.BurstMitigated, e.BurstOneShot)
		}
		// Mitigation never makes the impact grade worse.
		if e.WorstMitigated > e.WorstUnmitigated {
			t.Errorf("mitigation worsened impact grade: %v -> %v",
				e.WorstUnmitigated, e.WorstMitigated)
		}
	}
	if week.MeanRecovery <= 0 {
		t.Error("mean recovery should be positive")
	}
	if !strings.Contains(week.String(), "maintenance window") {
		t.Error("opsweek output missing header")
	}
}
