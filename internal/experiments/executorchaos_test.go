package experiments

import (
	"strings"
	"testing"
)

func TestExecutorChaos(t *testing.T) {
	res, err := RunExecutorChaos(testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(executorChaosRates) {
		t.Fatalf("runs = %d, want %d", len(res.Runs), len(executorChaosRates))
	}
	clean := res.Runs[0]
	if clean.Rate != 0 || clean.Injected != 0 {
		t.Fatalf("first run should be the clean baseline: %+v", clean)
	}
	if clean.State != "done" || clean.Retries != 0 {
		t.Errorf("clean run: state=%q retries=%d, want done with 0 retries", clean.State, clean.Retries)
	}
	for _, r := range res.Runs {
		// Generated faults stay inside the retry and loss budgets, so
		// every rate completes; the protocol absorbs the faults.
		if r.State != "done" || r.Halted {
			t.Errorf("rate %.2f: state=%q halted=%v, want done", r.Rate, r.State, r.Halted)
		}
	}
	worst := res.Runs[len(res.Runs)-1]
	if worst.Injected == 0 {
		t.Error("highest rate injected no faults; the experiment measured nothing")
	}
	if worst.Retries == 0 {
		t.Error("highest rate spent no retries despite injected push errors")
	}
	if !strings.Contains(res.String(), "Guarded executor under chaos") {
		t.Error("String() missing header")
	}
	if got := len(res.Timings()); got != len(executorChaosRates)+1 {
		t.Errorf("Timings() exported %d records, want %d", got, len(executorChaosRates)+1)
	}
}
