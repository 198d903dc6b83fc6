package httpapi

import (
	"math"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"magus/internal/sanitize"
)

func TestDrainRefusesAdmissionEndpoints(t *testing.T) {
	s, _ := campaignServer(t)
	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}

	refused := []struct{ method, path, body string }{
		{http.MethodGet, "/plan?scenario=a&method=power", ""},
		{http.MethodGet, "/runbook?scenario=a&method=power", ""},
		{http.MethodGet, "/simulate?scenario=a&method=power", ""},
		{http.MethodGet, "/schedule?scenario=a&method=power", ""},
		{http.MethodGet, "/outage?sector=0", ""},
		{http.MethodPost, "/campaigns", `{"jobs":[{"class":"suburban","seed":1}]}`},
	}
	for _, tc := range refused {
		var rec = get(t, s, tc.path)
		if tc.method == http.MethodPost {
			rec = post(t, s, tc.path, tc.body)
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s: status = %d, want 503", tc.method, tc.path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s %s: missing Retry-After", tc.method, tc.path)
		}
		var body map[string]any
		decode(t, rec, &body)
		if body["error"] == "" {
			t.Errorf("%s %s: no JSON error body", tc.method, tc.path)
		}
	}

	// Status endpoints keep answering during the drain.
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz during drain: %d", rec.Code)
	}
	var health map[string]any
	decode(t, rec, &health)
	if health["status"] != "draining" {
		t.Errorf("healthz status = %v, want draining", health["status"])
	}
	if rec := get(t, s, "/campaigns"); rec.Code != http.StatusOK {
		t.Errorf("campaign list during drain: %d", rec.Code)
	}
}

func TestCampaignBodyTooLarge(t *testing.T) {
	s, _ := campaignServer(t)
	huge := `{"jobs":[` + strings.Repeat(`{"class":"suburban","seed":1},`, 40000)
	huge = huge[:len(huge)-1] + `]}`
	if len(huge) <= maxBodyBytes {
		t.Fatalf("test body only %d bytes", len(huge))
	}
	rec := post(t, s, "/campaigns", huge)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
}

func TestCampaignMalformedBodyStructuredError(t *testing.T) {
	s, _ := campaignServer(t)

	rec := post(t, s, "/campaigns", `{"jobs": [}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("syntax error: status = %d, want 400", rec.Code)
	}
	var body map[string]any
	decode(t, rec, &body)
	if body["error"] != "malformed JSON body" || body["offset"] == nil {
		t.Errorf("syntax error body = %v, want error + offset", body)
	}

	rec = post(t, s, "/campaigns", `{"jobs": [{"seed": "not-a-number"}]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("type error: status = %d, want 400", rec.Code)
	}
	decode(t, rec, &body)
	if body["error"] != "malformed JSON body" || body["field"] == nil {
		t.Errorf("type error body = %v, want error + field", body)
	}

	rec = post(t, s, "/campaigns", `{"jobs": []} trailing`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("trailing data: status = %d, want 400", rec.Code)
	}
}

// TestTypeErrorDetailNamesNoGoType: a type error's detail is built from
// the JSON value, the field path and the wanted kind, never from Go type
// or struct names.
func TestTypeErrorDetailNamesNoGoType(t *testing.T) {
	s, _ := campaignServer(t)
	goName := regexp.MustCompile(`[a-z][A-Za-z0-9]*\.[A-Z]`)
	for body, want := range map[string]string{
		`{"jobs": [{"seed": "one"}]}`: "cannot unmarshal string into field jobs.seed of kind int64",
		`[]`:                          "cannot unmarshal array into the body of kind struct",
	} {
		rec := post(t, s, "/campaigns", body)
		var reply APIError
		decode(t, rec, &reply)
		if rec.Code != http.StatusBadRequest || reply.Field == nil {
			t.Fatalf("%s: status %d, reply %+v; want 400 with a field", body, rec.Code, reply)
		}
		if reply.Detail != want {
			t.Errorf("%s: detail %q, want %q", body, reply.Detail, want)
		}
		if strings.Contains(reply.Detail, "Go ") || goName.MatchString(reply.Detail) {
			t.Errorf("%s: detail %q names a Go type", body, reply.Detail)
		}
	}
}

func TestHealthzSanitationSummary(t *testing.T) {
	s := testServer(t)
	ds := s.engine.ExportDataset()
	ds.Sectors[0].LinkDB[0][0] = math.NaN()
	if _, err := s.engine.UseDataset(ds, sanitize.Repair); err != nil {
		t.Fatal(err)
	}

	rec := get(t, s, "/healthz")
	var body map[string]any
	decode(t, rec, &body)
	san, ok := body["sanitation"].(map[string]any)
	if !ok {
		t.Fatalf("no sanitation summary in %v", body)
	}
	if san["policy"] != "repair" || san["found"].(float64) < 1 {
		t.Errorf("sanitation summary = %v", san)
	}
}
