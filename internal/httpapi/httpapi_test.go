package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/topology"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	engine, err := core.NewEngine(core.SetupConfig{
		Seed:          3,
		Class:         topology.Suburban,
		RegionSpanM:   6000,
		CellSizeM:     200,
		EqualizeSteps: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(engine)
	t.Cleanup(s.Close)
	return s
}

// miniSetup sizes a miniature market per class so campaign tests build
// engines in milliseconds rather than seconds.
func miniSetup(class topology.AreaClass, seed int64) core.SetupConfig {
	cfg := core.SetupConfig{Seed: seed, Class: class, EqualizeSteps: 40}
	switch class {
	case topology.Rural:
		cfg.RegionSpanM, cfg.CellSizeM = 12000, 600
	case topology.Urban:
		cfg.RegionSpanM, cfg.CellSizeM = 2400, 150
	default:
		cfg.RegionSpanM, cfg.CellSizeM = 5400, 300
	}
	return cfg
}

// campaignServer builds a server whose orchestrator plans miniature
// markets through its own cache; the sync endpoints share the suburban
// miniature as their engine.
func campaignServer(t *testing.T) (*Server, *campaign.EngineCache) {
	t.Helper()
	cache := campaign.NewEngineCache(8)
	build := func(_ context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
		cfg := miniSetup(class, seed)
		key := campaign.EngineKey{Class: class, Seed: seed, SpecHash: campaign.SpecHash(cfg)}
		return cache.GetOrBuild(key, func() (*core.Engine, error) {
			return core.NewEngine(cfg)
		})
	}
	orch, err := campaign.New(campaign.Config{Build: build, Cache: cache, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := build(context.Background(), topology.Suburban, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(engine, Options{Orchestrator: orch})
	t.Cleanup(s.Close)
	return s, cache
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decode(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("bad JSON (%d): %v\n%s", rec.Code, err, rec.Body.String()[:min(200, rec.Body.Len())])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string]any
	decode(t, rec, &body)
	if body["status"] != "ok" || body["class"] != "suburban" {
		t.Errorf("health body = %v", body)
	}
	if body["sectors"].(float64) <= 0 {
		t.Error("no sectors reported")
	}
}

func TestSectorsGeoJSON(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/sectors")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/geo+json" {
		t.Errorf("content type = %q", ct)
	}
	var fc struct {
		Type     string `json:"type"`
		Features []any  `json:"features"`
	}
	decode(t, rec, &fc)
	if fc.Type != "FeatureCollection" || len(fc.Features) == 0 {
		t.Errorf("geojson = %q with %d features", fc.Type, len(fc.Features))
	}
}

func TestCoverageStrideValidation(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/coverage?stride=0"); rec.Code != http.StatusBadRequest {
		t.Errorf("stride=0 status = %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/coverage?stride=abc"); rec.Code != http.StatusBadRequest {
		t.Errorf("stride=abc status = %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/coverage?stride=3"); rec.Code != http.StatusOK {
		t.Errorf("stride=3 status = %d, want 200", rec.Code)
	}
}

func TestPlanEndpoint(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/plan?scenario=a&method=joint")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Recovery       float64 `json:"recovery"`
		UtilityBefore  float64 `json:"utility_before"`
		UtilityUpgrade float64 `json:"utility_upgrade"`
		UtilityAfter   float64 `json:"utility_after"`
		Targets        []int   `json:"targets"`
	}
	decode(t, rec, &body)
	if len(body.Targets) != 1 {
		t.Errorf("targets = %v, want one", body.Targets)
	}
	// The search's final step may overshoot f(C_before) slightly, so
	// allow a small margin above it.
	if !(body.UtilityBefore*1.01 >= body.UtilityAfter && body.UtilityAfter >= body.UtilityUpgrade) {
		t.Errorf("utility ordering broken: %+v", body)
	}
	if body.Recovery < 0 || body.Recovery > 1.05 {
		t.Errorf("recovery = %v", body.Recovery)
	}
}

func TestPlanValidation(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{
		"/plan?scenario=z",
		"/plan?method=bogus",
		"/plan?utility=bogus",
		"/plan?workers=-1",
		"/plan?workers=abc",
	} {
		if rec := get(t, s, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", path, rec.Code)
		}
	}
}

// TestPlanWorkersParam: ?workers=N selects the parallel scoring path and
// the response surfaces the engine counters.
func TestPlanWorkersParam(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/plan?scenario=a&method=power&workers=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Search struct {
			Workers       int   `json:"workers"`
			MovesProposed int64 `json:"moves_proposed"`
		} `json:"search"`
	}
	decode(t, rec, &body)
	if body.Search.Workers != 2 {
		t.Errorf("search.workers = %d, want 2", body.Search.Workers)
	}
	if body.Search.MovesProposed == 0 {
		t.Errorf("search.moves_proposed = 0, want > 0")
	}
}

func TestRunbookEndpoint(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/runbook?scenario=a")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var rb struct {
		Steps    []any `json:"steps"`
		Rollback []any `json:"rollback"`
	}
	decode(t, rec, &rb)
	if len(rb.Steps) == 0 || len(rb.Rollback) == 0 {
		t.Errorf("runbook steps=%d rollback=%d", len(rb.Steps), len(rb.Rollback))
	}
}

func TestOutageEndpoint(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/outage?sector=abc"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad sector status = %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/outage?sector=99999"); rec.Code != http.StatusNotFound {
		t.Errorf("out-of-range sector status = %d, want 404", rec.Code)
	}
	// Pick a sector inside the tuning area: that is the planner's
	// default precomputation scope.
	sector := -1
	for b := range s.engine.Net.Sectors {
		if s.engine.TuningArea().Contains(s.engine.Net.Sectors[b].Pos) {
			sector = b
			break
		}
	}
	if sector < 0 {
		sector = s.engine.Net.Sites[s.engine.Net.CentralSite()].Sectors[0]
	}
	rec := get(t, s, "/outage?sector="+strconv.Itoa(sector))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Precomputed    bool    `json:"precomputed"`
		UtilityOutage  float64 `json:"utility_outage"`
		UtilityApplied float64 `json:"utility_applied"`
	}
	decode(t, rec, &body)
	if !body.Precomputed {
		t.Error("tuning-area outage should be precomputed")
	}
	if body.UtilityApplied < body.UtilityOutage {
		t.Error("applying the response worsened utility")
	}
}

func TestConcurrentRequests(t *testing.T) {
	s := testServer(t)
	var wg sync.WaitGroup
	paths := []string{"/healthz", "/plan?scenario=a&method=power", "/sectors",
		"/coverage?stride=4", "/plan?scenario=b&method=tilt"}
	errs := make(chan string, len(paths)*4)
	for i := 0; i < 4; i++ {
		for _, p := range paths {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- path
				}
			}(p)
		}
	}
	wg.Wait()
	close(errs)
	for p := range errs {
		t.Errorf("concurrent request %s failed", p)
	}
}

func TestUnknownPath(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", rec.Code)
	}
}

func TestScheduleEndpoint(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/schedule?scenario=a&hours=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		DurationHours int `json:"duration_hours"`
		BestStart     int `json:"best_start"`
		Windows       []struct {
			StartHour            int  `json:"StartHour"`
			TouchesBusinessHours bool `json:"TouchesBusinessHours"`
		} `json:"windows"`
	}
	decode(t, rec, &body)
	if body.DurationHours != 5 || len(body.Windows) != 24 {
		t.Errorf("schedule body: hours=%d windows=%d", body.DurationHours, len(body.Windows))
	}
	// Off-peak recommendation: the best start avoids business hours.
	if body.BestStart >= 5 && body.BestStart < 22 {
		t.Errorf("best start %02d:00, expected night", body.BestStart)
	}
	if rec := get(t, s, "/schedule?hours=abc"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad hours status = %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/schedule?hours=99"); rec.Code != http.StatusBadRequest {
		t.Errorf("out-of-range hours status = %d, want 400", rec.Code)
	}
}

// factorialBody is the 27-job campaign request the acceptance criterion
// names: 3 classes x 3 scenarios x 3 methods on one seed.
func factorialBody() string {
	var jobs []string
	for _, class := range []string{"rural", "suburban", "urban"} {
		for _, sc := range []string{"a", "b", "c"} {
			for _, m := range []string{"power", "tilt", "joint"} {
				jobs = append(jobs, fmt.Sprintf(
					`{"class":%q,"seed":1,"scenario":%q,"method":%q}`, class, sc, m))
			}
		}
	}
	return `{"jobs":[` + strings.Join(jobs, ",") + `]}`
}

// campaignStatus is the GET /campaigns/{id} response shape.
type campaignStatus struct {
	Campaign campaign.Snapshot `json:"campaign"`
	Metrics  campaign.Metrics  `json:"metrics"`
}

// pollCampaign polls the status endpoint until the campaign finishes.
func pollCampaign(t *testing.T, s *Server, id string, timeout time.Duration) campaignStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		rec := get(t, s, "/campaigns/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		var st campaignStatus
		decode(t, rec, &st)
		if st.Campaign.Finished {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s did not finish: %+v", id, st.Campaign.Counts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCampaignEndToEnd(t *testing.T) {
	s, cache := campaignServer(t)
	rec := post(t, s, "/campaigns", factorialBody())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", rec.Code, rec.Body.String())
	}
	var accepted struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
	}
	decode(t, rec, &accepted)
	if accepted.ID == "" || accepted.Jobs != 27 {
		t.Fatalf("accepted = %+v", accepted)
	}
	if loc := rec.Header().Get("Location"); loc != "/campaigns/"+accepted.ID {
		t.Errorf("location = %q", loc)
	}

	st := pollCampaign(t, s, accepted.ID, 2*time.Minute)
	if st.Campaign.Cancelled {
		t.Fatal("campaign reports cancelled")
	}
	if st.Campaign.Counts["done"] != 27 {
		t.Fatalf("counts = %v, want 27 done", st.Campaign.Counts)
	}
	for _, j := range st.Campaign.Jobs {
		if j.State != "done" || j.Result == nil {
			t.Fatalf("job %d: state=%s err=%q", j.ID, j.State, j.Error)
		}
	}
	if st.Campaign.MeanRecovery <= 0 {
		t.Errorf("mean recovery = %v", st.Campaign.MeanRecovery)
	}
	// 27 jobs over 3 distinct markets (plus the server's own suburban
	// engine, built through the same cache): at most 9 builds per the
	// acceptance criterion, exactly 3 in practice.
	if st.Metrics.Cache == nil {
		t.Fatal("no cache stats in metrics")
	}
	if st.Metrics.Cache.Builds > 9 {
		t.Errorf("engine builds = %d, want <= 9", st.Metrics.Cache.Builds)
	}
	if got := cache.Stats().Builds; got != 3 {
		t.Errorf("engine builds = %d, want 3 (one per market)", got)
	}
	if st.Metrics.Jobs["done"] < 27 {
		t.Errorf("orchestrator done count = %d", st.Metrics.Jobs["done"])
	}

	// The campaign shows up in the list.
	var list struct {
		Campaigns []string `json:"campaigns"`
	}
	decode(t, get(t, s, "/campaigns"), &list)
	found := false
	for _, id := range list.Campaigns {
		found = found || id == accepted.ID
	}
	if !found {
		t.Errorf("campaign %s missing from list %v", accepted.ID, list.Campaigns)
	}
}

func TestCampaignCancelEndpoint(t *testing.T) {
	// Builders that only finish on cancellation make the race-free
	// version of "cancel a running campaign" testable.
	orch, err := campaign.New(campaign.Config{
		Build: func(ctx context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(miniSetup(topology.Suburban, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := New(engine, Options{Orchestrator: orch})
	t.Cleanup(s.Close)

	body := `{"jobs":[{"class":"suburban","seed":1},{"class":"urban","seed":1},{"class":"rural","seed":1}]}`
	rec := post(t, s, "/campaigns", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", rec.Code, rec.Body.String())
	}
	var accepted struct {
		ID string `json:"id"`
	}
	decode(t, rec, &accepted)

	rec = post(t, s, "/campaigns/"+accepted.ID+"/cancel", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel status = %d: %s", rec.Code, rec.Body.String())
	}
	st := pollCampaign(t, s, accepted.ID, 10*time.Second)
	if !st.Campaign.Cancelled {
		t.Error("campaign not marked cancelled")
	}
	if st.Campaign.Counts["cancelled"] != 3 {
		t.Errorf("counts = %v, want 3 cancelled", st.Campaign.Counts)
	}
}

func TestCampaignNotFound(t *testing.T) {
	s, _ := campaignServer(t)
	if rec := get(t, s, "/campaigns/c999"); rec.Code != http.StatusNotFound {
		t.Errorf("status status = %d, want 404", rec.Code)
	}
	rec := post(t, s, "/campaigns/c999/cancel", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("cancel status = %d, want 404", rec.Code)
	}
	var body map[string]string
	decode(t, rec, &body)
	if body["error"] == "" {
		t.Error("404 body carries no JSON error")
	}
}

// TestSimulateEndpoint: the planner's runbook executes through the
// upgrade-window simulator and the response carries summary + series.
func TestSimulateEndpoint(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/simulate?scenario=a&method=power&sim_seed=7&noise=0.02&series=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Scenario string `json:"scenario"`
		Steps    int    `json:"steps"`
		Summary  struct {
			Ticks          int  `json:"ticks"`
			PushesApplied  int  `json:"pushes_applied"`
			EndsAboveFloor bool `json:"ends_above_floor"`
		} `json:"summary"`
		Series []struct {
			Utility float64 `json:"utility"`
			Floor   float64 `json:"floor_utility"`
		} `json:"series"`
	}
	decode(t, rec, &body)
	if body.Steps == 0 || body.Summary.Ticks == 0 {
		t.Fatalf("empty simulation: %+v", body)
	}
	if body.Summary.PushesApplied != body.Steps {
		t.Errorf("pushes applied = %d, want %d (no faults)",
			body.Summary.PushesApplied, body.Steps)
	}
	if !body.Summary.EndsAboveFloor {
		t.Error("fault-free window ends below floor")
	}
	if len(body.Series) != body.Summary.Ticks {
		t.Errorf("series length = %d, want %d", len(body.Series), body.Summary.Ticks)
	}
	// Without series=1 the per-tick data stays out of the payload.
	rec = get(t, s, "/simulate?scenario=a&method=power&sim_seed=7")
	var lean map[string]any
	decode(t, rec, &lean)
	if _, ok := lean["series"]; ok {
		t.Error("series included without series=1")
	}
}

func TestSimulateValidation(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{
		"/simulate?faults=meteor@5",
		"/simulate?faults=push-fail@",
		"/simulate?ticks=-1",
		"/simulate?ticks=abc",
		"/simulate?noise=-0.5",
		"/simulate?start_hour=abc",
		"/simulate?sim_seed=abc",
		"/simulate?scenario=z",
		"/simulate?workers=-1",
		"/simulate?faults=push-fail@999",    // step out of runbook range
		"/simulate?faults=push-delay@2%2B0", // non-positive delay
	} {
		if rec := get(t, s, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", path, rec.Code)
		}
	}
}

// TestCampaignSimulateJob: a kind=simulate job runs the window and its
// result carries the simulation summary.
func TestCampaignSimulateJob(t *testing.T) {
	s, _ := campaignServer(t)
	body := `{"jobs":[{"class":"suburban","seed":1,"scenario":"a","method":"power",
		"kind":"simulate","sim":{"seed":11,"faults":"push-fail@1","diurnal":true}}]}`
	rec := post(t, s, "/campaigns", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", rec.Code, rec.Body.String())
	}
	var accepted struct {
		ID string `json:"id"`
	}
	decode(t, rec, &accepted)
	st := pollCampaign(t, s, accepted.ID, 2*time.Minute)
	if st.Campaign.Counts["done"] != 1 {
		t.Fatalf("counts = %v", st.Campaign.Counts)
	}
	job := st.Campaign.Jobs[0]
	if job.Result == nil || job.Result.Sim == nil {
		t.Fatalf("simulate job carries no sim summary: %+v", job)
	}
	sim := job.Result.Sim
	if sim.Ticks == 0 {
		t.Error("sim ran zero ticks")
	}
	if sim.PushesDropped != 1 {
		t.Errorf("pushes dropped = %d, want 1 (push-fail@1)", sim.PushesDropped)
	}
}

func TestCampaignSimulateValidation(t *testing.T) {
	s, _ := campaignServer(t)
	cases := []struct {
		name, body string
	}{
		{"unknown kind", `{"jobs":[{"class":"urban","kind":"dream"}]}`},
		{"sim on plan job", `{"jobs":[{"class":"urban","sim":{"seed":1}}]}`},
		{"bad fault script", `{"jobs":[{"class":"urban","kind":"simulate","sim":{"faults":"meteor@5"}}]}`},
		{"negative ticks", `{"jobs":[{"class":"urban","kind":"simulate","sim":{"ticks":-3}}]}`},
	}
	for _, tc := range cases {
		rec := post(t, s, "/campaigns", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, rec.Code)
			continue
		}
		var body map[string]string
		decode(t, rec, &body)
		if body["error"] == "" {
			t.Errorf("%s: no JSON error body", tc.name)
		}
	}
}

func TestCampaignSubmitValidation(t *testing.T) {
	s, _ := campaignServer(t)
	cases := []struct {
		name, body string
	}{
		{"malformed", `{"jobs":[`},
		{"unknown field", `{"jbos":[]}`},
		{"empty", `{"jobs":[]}`},
		{"bad class", `{"jobs":[{"class":"exurban","seed":1}]}`},
		{"bad scenario", `{"jobs":[{"class":"urban","scenario":"z"}]}`},
		{"bad method", `{"jobs":[{"class":"urban","method":"magic"}]}`},
		{"bad utility", `{"jobs":[{"class":"urban","utility":"profit"}]}`},
		{"negative timeout", `{"jobs":[{"class":"urban","timeout_ms":-5}]}`},
	}
	for _, tc := range cases {
		rec := post(t, s, "/campaigns", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, rec.Code)
			continue
		}
		var body map[string]string
		decode(t, rec, &body)
		if body["error"] == "" {
			t.Errorf("%s: no JSON error body", tc.name)
		}
	}
}
