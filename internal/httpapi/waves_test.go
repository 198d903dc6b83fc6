package httpapi

import (
	"net/http"
	"testing"
	"time"
)

// pollWave polls GET /waves/{id} until the season finishes.
func pollWave(t *testing.T, s *Server, id string, timeout time.Duration) WaveStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		rec := get(t, s, "/waves/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /waves/%s: %d %s", id, rec.Code, rec.Body.String())
		}
		var st WaveStatus
		decode(t, rec, &st)
		if st.Finished {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("wave %s did not finish: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestWaveEndToEnd(t *testing.T) {
	s, _ := campaignServer(t)
	body := `{"class": "suburban", "seed": 1, "method": "power", "utility": "performance",
		"workers": 1, "wave": {"crews_per_wave": 2, "anneal_iters": 200}}`
	rec := post(t, s, "/waves", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /waves: %d %s", rec.Code, rec.Body.String())
	}
	if loc := rec.Header().Get("Location"); loc == "" {
		t.Error("no Location header on accepted wave")
	}
	var ack Accepted
	decode(t, rec, &ack)
	st := pollWave(t, s, ack.ID, 30*time.Second)
	if st.State != "done" || st.Error != "" {
		t.Fatalf("wave job state %q, error %q", st.State, st.Error)
	}
	if st.Season == nil || len(st.Season.Waves) == 0 {
		t.Fatalf("finished wave has no season: %+v", st)
	}
	if st.Season.MinWaveUtility <= 0 || st.Season.MinWaveUtility >= st.Season.UtilityBefore {
		t.Errorf("implausible season min utility %f (before %f)",
			st.Season.MinWaveUtility, st.Season.UtilityBefore)
	}
	for _, w := range st.Season.Waves {
		if len(w.Sectors) > 2 {
			t.Errorf("wave %d darkens %d sectors, crews_per_wave 2", w.Wave, len(w.Sectors))
		}
		if w.Runbook == nil || w.Runbook.Wave == nil {
			t.Errorf("wave %d runbook missing WaveMeta", w.Wave)
		}
	}

	// The scheduler counters must surface on /healthz.
	var health map[string]any
	decode(t, get(t, s, "/healthz"), &health)
	ws, ok := health["wave_scheduler"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing wave_scheduler: %v", health)
	}
	if n, _ := ws["seasons_planned"].(float64); n < 1 {
		t.Errorf("wave_scheduler.seasons_planned = %v", ws["seasons_planned"])
	}
}

func TestWaveValidation(t *testing.T) {
	s, _ := campaignServer(t)
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"unknown class", `{"class": "lunar"}`, http.StatusBadRequest},
		{"unknown method", `{"class": "suburban", "method": "wish"}`, http.StatusBadRequest},
		{"unknown utility", `{"class": "suburban", "utility": "vibes"}`, http.StatusBadRequest},
		{"negative workers", `{"class": "suburban", "workers": -1}`, http.StatusBadRequest},
		{"negative timeout", `{"class": "suburban", "timeout_ms": -5}`, http.StatusBadRequest},
		{"malformed body", `{"class": "suburban",`, http.StatusBadRequest},
		{"unknown field", `{"klass": "suburban"}`, http.StatusBadRequest},
		{"bad wave spec", `{"class": "suburban", "wave": {"overlap_threshold": 2}}`, http.StatusBadRequest},
		{"bad fault script", `{"class": "suburban", "wave": {"faults": "gremlins@3"}}`, http.StatusBadRequest},
	} {
		rec := post(t, s, "/waves", tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: got %d want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
		}
	}
	if rec := get(t, s, "/waves/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("GET /waves/nope: %d", rec.Code)
	}
}

// TestWaveViaCampaigns: a wave job rides the generic campaign surface
// too, so fleets dispatch seasons like any other job.
func TestWaveViaCampaigns(t *testing.T) {
	s, _ := campaignServer(t)
	body := `{"jobs": [{"class": "suburban", "seed": 1, "method": "power",
		"utility": "performance", "workers": 1, "kind": "wave",
		"wave": {"crews_per_wave": 3, "anneal_iters": 100}}]}`
	rec := post(t, s, "/campaigns", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /campaigns: %d %s", rec.Code, rec.Body.String())
	}
	var ack Accepted
	decode(t, rec, &ack)
	st := pollWave(t, s, ack.ID, 30*time.Second) // WaveStatus projects campaigns too
	if st.State != "done" || st.Season == nil {
		t.Fatalf("wave campaign job: state %q season %v", st.State, st.Season)
	}
	t.Logf("season: %d waves", len(st.Season.Waves))
}
