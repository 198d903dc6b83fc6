package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"magus/internal/campaign"
	"magus/internal/executor"
	"magus/internal/simwindow"
	"magus/internal/waveplan"
)

func TestCheckPlan(t *testing.T) {
	good := `{"utility_before":100,"utility_upgrade":90,"utility_after":95,"recovery":0.5,"evaluations":12}`
	f, err := checkPlan([]byte(good))
	if err != nil || f.Recovery != 0.5 {
		t.Fatalf("good plan: %v %+v", err, f)
	}
	for name, body := range map[string]string{
		"after below upgrade": `{"utility_before":100,"utility_upgrade":90,"utility_after":89,"recovery":-0.1,"evaluations":12}`,
		"no evaluations":      `{"utility_before":100,"utility_upgrade":90,"utility_after":95,"recovery":0.5,"evaluations":0}`,
		"not JSON":            `{"utility_after":`,
	} {
		if _, err := checkPlan([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckRunbook(t *testing.T) {
	good := `{"expected_upgrade":90,"expected_after":95,"expected_recovery":0.5,"steps":[{"index":1}]}`
	if _, err := checkRunbook([]byte(good)); err != nil {
		t.Fatalf("good runbook: %v", err)
	}
	for name, body := range map[string]string{
		"after below upgrade": `{"expected_upgrade":90,"expected_after":80,"steps":[{"index":1}]}`,
		"no steps":            `{"expected_upgrade":90,"expected_after":95,"steps":[]}`,
	} {
		if _, err := checkRunbook([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckSimulate(t *testing.T) {
	reply := func(ticks, applied, dropped int, floor float64) []byte {
		return mustJSON(simulateReply{Steps: 5, Summary: &simwindow.Summary{
			Ticks: ticks, PushesApplied: applied, PushesDropped: dropped, FinalUtility: 99, FinalFloor: floor,
		}})
	}
	f, err := checkSimulate(reply(1441, 4, 1, 100), 1440)
	if err != nil || math.Abs(f.FloorRatio-0.99) > 1e-12 {
		t.Fatalf("good window: %v %+v", err, f)
	}
	if _, err := checkSimulate(reply(1440, 5, 0, 100), 1440); err == nil {
		t.Error("short window accepted")
	}
	if _, err := checkSimulate(reply(1441, 3, 0, 100), 1440); err == nil {
		t.Error("lost pushes accepted")
	}
	if _, err := checkSimulate(reply(1441, 5, 0, 0), 1440); err == nil {
		t.Error("zero floor accepted")
	}
	if _, err := checkSimulate([]byte(`{"steps":5}`), 1440); err == nil {
		t.Error("missing summary accepted")
	}
}

func TestCheckExecute(t *testing.T) {
	done := executeReply{ID: "x1", Finished: true, Status: &executor.Status{State: executor.RunDone}}
	rolled := executeReply{ID: "x2", Finished: true, Status: &executor.Status{State: executor.RunRolledBack, RolledBack: true}}
	for _, r := range []executeReply{done, rolled} {
		if _, err := checkExecute(r); err != nil {
			t.Errorf("%s: %v", r.ID, err)
		}
	}
	for name, r := range map[string]executeReply{
		"failed":           {ID: "x3", Status: &executor.Status{State: executor.RunFailed}},
		"killed":           {ID: "x4", Status: &executor.Status{State: executor.RunKilled}},
		"partial rollback": {ID: "x5", Status: &executor.Status{State: executor.RunRolledBack}},
		"run error":        {ID: "x6", Status: &executor.Status{State: executor.RunDone}, Error: "journal: disk full"},
		"no status":        {ID: "x7"},
	} {
		if _, err := checkExecute(r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckCampaign(t *testing.T) {
	job := func(state string, upgrade, after float64) campaign.JobSnapshot {
		return campaign.JobSnapshot{State: state, Result: &campaign.Result{UtilityUpgrade: upgrade, UtilityAfter: after}}
	}
	snap := campaign.Snapshot{ID: "c1", Finished: true, Jobs: []campaign.JobSnapshot{job("done", 1, 2), job("done", 1, 1)}}
	if _, err := checkCampaign(snap, 2); err != nil {
		t.Fatalf("good campaign: %v", err)
	}
	if _, err := checkCampaign(snap, 3); err == nil {
		t.Error("missing job accepted")
	}
	bad := snap
	bad.Jobs = []campaign.JobSnapshot{job("done", 1, 2), {State: "failed", Error: "build engine: boom"}}
	if _, err := checkCampaign(bad, 2); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Errorf("failed job accepted: %v", err)
	}
	bad.Jobs = []campaign.JobSnapshot{job("done", 1, 2), job("done", 2, 1)}
	if _, err := checkCampaign(bad, 2); err == nil {
		t.Error("worsening plan accepted")
	}
	unfinished := snap
	unfinished.Finished = false
	if _, err := checkCampaign(unfinished, 2); err == nil {
		t.Error("unfinished campaign accepted")
	}
}

func TestCheckSeason(t *testing.T) {
	season := &waveplan.Result{Waves: []waveplan.Wave{
		{Wave: 1, UtilityUpgrade: 1, UtilityAfter: 2, Replay: &simwindow.Summary{}},
		{Wave: 2, Cancelled: true},
	}}
	good := waveReply{ID: "c1", State: "done", Finished: true, Season: season}
	if _, err := checkSeason(good); err != nil {
		t.Fatalf("good season: %v", err)
	}
	for name, r := range map[string]waveReply{
		"unfinished": {ID: "c2", State: "running", Season: season},
		"failed":     {ID: "c3", State: "failed", Finished: true, Error: "wave: boom"},
		"cancelled":  {ID: "c4", State: "done", Finished: true, Cancelled: true, Season: season},
		"no replay": {ID: "c5", State: "done", Finished: true, Season: &waveplan.Result{Waves: []waveplan.Wave{
			{Wave: 1, UtilityUpgrade: 1, UtilityAfter: 2},
		}}},
	} {
		if _, err := checkSeason(r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "request", Req: 1, Parent: -1, Start: 0, End: 10 * ms},
		{Name: "core.mitigate", Req: 1, Parent: 0, Start: 1 * ms, End: 5 * ms},
		{Name: "executor.run", Req: 1, Parent: 0, Start: 5 * ms, End: 9 * ms},
		{Name: "executor.push", Req: 1, Parent: 2, Start: 6 * ms, End: 7 * ms},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{2 * ms, 4 * ms, 3 * ms, 1 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	outside := append([]span(nil), spans...)
	outside[3].End = 11 * ms
	if _, err := selfTimes(outside); err == nil {
		t.Error("child outside its parent accepted")
	}
	open := append([]span(nil), spans...)
	open[1].End = -1
	if _, err := selfTimes(open); err == nil {
		t.Error("unclosed span accepted")
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := median(xs); q != 2.5 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max %v", q)
	}
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean %v", g)
	}
	if q := tailQuantile(200); q != 0.95 {
		t.Errorf("tail of 200 samples: p%v", q*100)
	}
	if q := tailQuantile(15); q != 0.5 {
		t.Errorf("tail of 15 samples: p%v", q*100)
	}
}
