package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// waitExecute polls the status endpoint until the run finishes.
func waitExecute(t *testing.T, s *Server, id string) ExecuteStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec := get(t, s, "/execute/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		var view ExecuteStatus
		decode(t, rec, &view)
		if view.Finished {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s did not finish: %+v", id, view)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func submitExecute(t *testing.T, s *Server, body string) (string, int) {
	t.Helper()
	rec := post(t, s, "/execute", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	if loc := rec.Header().Get("Location"); loc == "" {
		t.Error("no Location header on 202")
	}
	var accepted Accepted
	decode(t, rec, &accepted)
	if accepted.ID == "" || accepted.Steps == 0 {
		t.Fatalf("bad accept payload: %+v", accepted)
	}
	return accepted.ID, accepted.Steps
}

func TestExecuteEndpoint(t *testing.T) {
	s := testServer(t)
	id, steps := submitExecute(t, s,
		`{"scenario":"a","method":"power","utility":"performance",
		  "exec":{"retry_backoff_ms":1}}`)
	view := waitExecute(t, s, id)
	if view.Error != "" {
		t.Fatalf("run error: %s", view.Error)
	}
	if view.Status.State != "done" || view.Status.Halted {
		t.Fatalf("state=%q halted=%v, want done", view.Status.State, view.Status.Halted)
	}
	if len(view.Status.Steps) != steps {
		t.Errorf("status has %d steps, accept said %d", len(view.Status.Steps), steps)
	}
	for _, st := range view.Status.Steps {
		if st.State != "verified" {
			t.Errorf("step %d state = %q, want verified", st.Index, st.State)
		}
	}

	// The run surfaces on /healthz executor counters.
	rec := get(t, s, "/healthz")
	var health struct {
		Executor struct {
			Active   int `json:"active"`
			Counters struct {
				Runs      int64 `json:"runs"`
				Completed int64 `json:"completed"`
			} `json:"counters"`
		} `json:"executor"`
	}
	decode(t, rec, &health)
	if health.Executor.Counters.Runs < 1 || health.Executor.Counters.Completed < 1 {
		t.Errorf("healthz executor counters = %+v, want >= 1 run completed", health.Executor.Counters)
	}
}

// TestExecuteJournalCounters runs one clean journaled /execute run and
// reads its journal work off /healthz: a k-step run appends 3k+1
// checkpoint records (intent, commit and verify per step, then the
// outcome) and syncs k+1 of them (the intents and the outcome).
func TestExecuteJournalCounters(t *testing.T) {
	s := New(testEngine(t), Options{ExecDir: t.TempDir()})
	t.Cleanup(s.Close)
	type counters struct {
		Records int64 `json:"journal_records"`
		Syncs   int64 `json:"journal_syncs"`
	}
	read := func() counters {
		var health struct {
			Executor struct {
				Counters counters `json:"counters"`
			} `json:"executor"`
		}
		decode(t, get(t, s, "/healthz"), &health)
		return health.Executor.Counters
	}
	before := read()
	id, steps := submitExecute(t, s, `{"scenario":"a","method":"power","exec":{"retry_backoff_ms":1}}`)
	if view := waitExecute(t, s, id); view.Error != "" || view.Status.State != "done" {
		t.Fatalf("run: state %q, error %q", view.Status.State, view.Error)
	}
	after := read()
	k := int64(steps)
	if got := after.Syncs - before.Syncs; got != k+1 {
		t.Errorf("journal_syncs moved by %d, want k+1 = %d", got, k+1)
	}
	if got := after.Records - before.Records; got != 3*k+1 {
		t.Errorf("journal_records moved by %d, want 3k+1 = %d", got, 3*k+1)
	}
}

// TestExecuteEndpointHaltsOnBreach injects a sustained floor breach:
// the run must finish halted with the rollback applied, reported as a
// domain outcome (no run error).
func TestExecuteEndpointHaltsOnBreach(t *testing.T) {
	s := testServer(t)
	id, _ := submitExecute(t, s,
		`{"scenario":"a","method":"power","utility":"performance",
		  "exec":{"chaos":"kpi-breach@1","retry_backoff_ms":1}}`)
	view := waitExecute(t, s, id)
	if view.Error != "" {
		t.Fatalf("halted run reported an error: %s", view.Error)
	}
	if !view.Status.Halted || !view.Status.RolledBack {
		t.Fatalf("halted=%v rolledBack=%v, want halted with rollback", view.Status.Halted, view.Status.RolledBack)
	}
}

func TestExecuteValidation(t *testing.T) {
	s := testServer(t)
	for name, body := range map[string]string{
		"bad scenario":   `{"scenario":"z","method":"power","utility":"performance"}`,
		"bad method":     `{"scenario":"a","method":"magic","utility":"performance"}`,
		"bad utility":    `{"scenario":"a","method":"power","utility":"latency"}`,
		"bad chaos":      `{"scenario":"a","method":"power","utility":"performance","exec":{"chaos":"meteor@3"}}`,
		"negative param": `{"scenario":"a","method":"power","utility":"performance","exec":{"retries":-1}}`,
		"neg workers":    `{"scenario":"a","method":"power","utility":"performance","workers":-1}`,
		"neg start hour": `{"scenario":"a","method":"tilt","exec":{"diurnal":true,"start_hour":-3}}`,
		"neg load noise": `{"scenario":"a","method":"power","exec":{"load_noise":-0.1}}`,
		"unknown field":  `{"scenario":"a","method":"power","utility":"performance","oops":1}`,
	} {
		rec := post(t, s, "/execute", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, rec.Code)
		}
	}
	rec := get(t, s, "/execute/x999")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown run: status = %d, want 404", rec.Code)
	}
}

// TestExecuteRejectsPushFaults: /execute refuses a simwindow push fault
// in its chaos script at validation, before planning the runbook (a
// failure after planning carries "execute:" instead of "campaign:").
func TestExecuteRejectsPushFaults(t *testing.T) {
	s := testServer(t)
	rec := post(t, s, "/execute", `{"scenario":"a","method":"power","exec":{"chaos":"push-fail@2"}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	var body APIError
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(body.Error, "campaign: simwindow: session fault push-fail@2") {
		t.Errorf("error = %q, want the session's push-fault error from validation", body.Error)
	}
}

// TestExecuteRunsConcurrently verifies distinct runs get distinct IDs
// and independent networks.
func TestExecuteConcurrentRuns(t *testing.T) {
	s := testServer(t)
	ids := map[string]bool{}
	for i := 0; i < 2; i++ {
		id, _ := submitExecute(t, s, fmt.Sprintf(
			`{"scenario":"a","method":"power","utility":"performance",
			  "exec":{"exec_seed":%d,"retry_backoff_ms":1}}`, i))
		if ids[id] {
			t.Fatalf("duplicate run id %q", id)
		}
		ids[id] = true
		view := waitExecute(t, s, id)
		if view.Status.State != "done" {
			t.Errorf("run %s state = %q, want done", id, view.Status.State)
		}
	}
}
