package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		a, b := encodeSequence(w, 7, 3), encodeSequence(w, 7, 3)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request sequences", w.Name)
		}
		if len(a) == 0 {
			t.Errorf("%s: empty request sequence", w.Name)
		}
	}
}

func TestDifferentSeedDifferentSequence(t *testing.T) {
	for _, w := range workloads {
		if bytes.Equal(encodeSequence(w, 7, 3), encodeSequence(w, 8, 3)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w.Name)
		}
	}
}

func TestPassesDiffer(t *testing.T) {
	for _, w := range workloads {
		if bytes.Equal(encodeSequence(w, 7, 1), bytes.TrimPrefix(encodeSequence(w, 7, 2), encodeSequence(w, 7, 1))) {
			t.Errorf("%s: pass 1 repeats pass 0 byte for byte", w.Name)
		}
	}
}

func count(reqs []Request, pred func(Request) bool) int {
	n := 0
	for _, r := range reqs {
		if pred(r) {
			n++
		}
	}
	return n
}

func TestPlanInteractiveMix(t *testing.T) {
	for p := 0; p < 3; p++ {
		reqs := planPass(11, p)
		if len(reqs) != 36 {
			t.Fatalf("pass %d: %d requests, want 36", p, len(reqs))
		}
		if n := count(reqs, func(r Request) bool { return r.Class == classPlan }); n != 18 {
			t.Errorf("pass %d: %d /plan, want 18", p, n)
		}
		if n := count(reqs, func(r Request) bool { return r.Class == classRunbook }); n != 18 {
			t.Errorf("pass %d: %d /runbook, want 18", p, n)
		}
		if n := count(reqs, func(r Request) bool { return r.Fixed }); n != len(reqs)/4 {
			t.Errorf("pass %d: %d fixed=1, want a quarter (%d)", p, n, len(reqs)/4)
		}
		for _, sc := range scenarios {
			for _, m := range methods {
				if n := count(reqs, func(r Request) bool { return r.Scenario == sc && r.Method == m }); n != 4 {
					t.Errorf("pass %d: scenario %s method %s sent %d times, want 4", p, sc, m, n)
				}
			}
		}
	}
}

func TestWindowReplayMix(t *testing.T) {
	for p := 0; p < 3; p++ {
		reqs := windowPass(11, p)
		if len(reqs) != windowSimPer+windowExecPer {
			t.Fatalf("pass %d: %d requests", p, len(reqs))
		}
		for i, r := range reqs {
			want := classSimulate
			if i%2 == 1 {
				want = classExecute
			}
			if r.Class != want {
				t.Errorf("pass %d request %d: %s, want %s (simulate and execute alternate)", p, i, r.Class, want)
			}
			if r.Method != "tilt" {
				t.Errorf("pass %d request %d: method %s, want tilt", p, i, r.Method)
			}
			switch r.Class {
			case classSimulate:
				if r.Ticks != simTicks || !strings.Contains(r.Faults, "sector-down@") || !strings.Contains(r.Faults, "surge@") {
					t.Errorf("pass %d: simulate %+v lacks the day window or its faults", p, r)
				}
			case classExecute:
				if r.Exec.RetryBackoffMS != 1 || strings.Contains(r.Exec.Chaos, "crash") {
					t.Errorf("pass %d: execute chaos %q backoff %d", p, r.Exec.Chaos, r.Exec.RetryBackoffMS)
				}
			}
		}
		if n := count(reqs, func(r Request) bool { return r.Exec != nil && strings.Contains(r.Exec.Chaos, "kpi-breach") }); n != 1 {
			t.Errorf("pass %d: %d executions with a sustained breach, want 1", p, n)
		}
	}
}

func TestSeasonBatchMix(t *testing.T) {
	colds := map[int64]bool{}
	for p := 0; p < 5; p++ {
		reqs := seasonPass(11, p)
		if len(reqs) != 3 || reqs[0].Class != classCampaignHot || reqs[1].Class != classCampaignCold || reqs[2].Class != classSeason {
			t.Fatalf("pass %d: want hot campaign, cold campaign, season; got %d requests", p, len(reqs))
		}
		for _, r := range reqs[:2] {
			if len(r.Jobs) != 27 {
				t.Fatalf("pass %d: %s has %d jobs, want 27", p, r.Class, len(r.Jobs))
			}
			seen := map[JobRequest]bool{}
			for _, j := range r.Jobs {
				if j.Seed != r.Jobs[0].Seed {
					t.Errorf("pass %d: %s mixes market seeds", p, r.Class)
				}
				seen[j] = true
			}
			if len(seen) != 27 {
				t.Errorf("pass %d: %s covers %d distinct jobs, want all 27", p, r.Class, len(seen))
			}
		}
		if s := reqs[0].Jobs[0].Seed; s != hotMarketSeed {
			t.Errorf("pass %d: hot campaign on seed %d", p, s)
		}
		cold := reqs[1].Jobs[0].Seed
		if cold < coldSeedBase || colds[cold] {
			t.Errorf("pass %d: cold seed %d is not fresh", p, cold)
		}
		colds[cold] = true
		if !reqs[2].Wave.Replay || reqs[2].MarketSeed != hotMarketSeed {
			t.Errorf("pass %d: season %+v", p, reqs[2])
		}
	}
}

func TestHTTPRendering(t *testing.T) {
	m, path, body := Request{Class: classPlan, Scenario: "b", Method: "joint", Fixed: true}.HTTP()
	if m != "GET" || path != "/plan?fixed=1&method=joint&scenario=b" || body != nil {
		t.Errorf("plan rendered as %s %s %s", m, path, body)
	}
	m, path, body = seasonPass(3, 0)[0].HTTP()
	if m != "POST" || path != "/campaigns" || !bytes.HasPrefix(body, []byte(`{"jobs":[{"class":`)) {
		t.Errorf("campaign rendered as %s %s %s", m, path, body)
	}
}
