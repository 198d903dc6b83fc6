package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"magus/internal/core"
	"magus/internal/httpapi"
	"magus/internal/topology"
)

// TestReadAPIError renders real rejections from an httpapi server. Each
// JSON error body must also be byte-identical to the map[string]any
// literal the server encoded before httpapi.APIError replaced it.
func TestReadAPIError(t *testing.T) {
	engine, err := core.NewEngine(core.SetupConfig{
		Seed: 1, Class: topology.Suburban, RegionSpanM: 5400, CellSizeM: 300, EqualizeSteps: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	api := httpapi.New(engine, httpapi.Options{})
	t.Cleanup(api.Close)
	// A plain-text reply, as a proxy in front of the server might send,
	// keeps readAPIError's non-JSON path covered.
	front := http.NewServeMux()
	front.Handle("/", api)
	front.Handle("GET /proxy/", http.NotFoundHandler())
	srv := httptest.NewServer(front)
	t.Cleanup(srv.Close)

	malformed := func(keys ...string) func(e httpapi.APIError) any {
		return func(e httpapi.APIError) any {
			m := map[string]any{"error": e.Error, "detail": e.Detail}
			for _, k := range keys {
				switch k {
				case "offset":
					m[k] = e.Offset
				case "field":
					m[k] = *e.Field
				}
			}
			return m
		}
	}
	plain := func(e httpapi.APIError) any { return map[string]string{"error": e.Error} }

	for _, tc := range []struct {
		name, method, path, body string
		status                   int
		want                     string // prefix of the rendered line
		old                      func(httpapi.APIError) any
	}{
		{"trailing data", "POST", "/campaigns", `{"jobs":[]} {}`, http.StatusBadRequest,
			"malformed JSON body: trailing data after JSON value", malformed()},
		{"syntax error", "POST", "/campaigns", `{"jobs":[x]}`, http.StatusBadRequest,
			"malformed JSON body (offset 10): invalid character 'x'", malformed("offset")},
		{"type error", "POST", "/campaigns", `{"jobs":[{"seed":"one"}]}`, http.StatusBadRequest,
			"malformed JSON body (field jobs.seed): cannot unmarshal string into field jobs.seed of kind int64", malformed("field")},
		{"top-level type error", "POST", "/execute", `[]`, http.StatusBadRequest,
			"malformed JSON body: cannot unmarshal array into the body of kind struct", malformed("field")},
		{"body over 1 MB", "POST", "/waves", `{"class":"` + strings.Repeat("a", 1<<20) + `"}`,
			http.StatusRequestEntityTooLarge, "request body exceeds 1048576 bytes", plain},
		{"unknown campaign", "GET", "/campaigns/c999", "", http.StatusNotFound,
			`unknown campaign "c999"`, plain},
		{"unrouted path", "GET", "/nope", "", http.StatusNotFound, "GET /nope: not found", plain},
		{"non-JSON body", "GET", "/proxy/nope", "", http.StatusNotFound, "404 page not found", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			resp.Body = io.NopCloser(bytes.NewReader(raw))
			if got := readAPIError(resp); !strings.HasPrefix(got, tc.want) {
				t.Errorf("readAPIError = %q, want prefix %q", got, tc.want)
			}
			if tc.old == nil {
				return
			}
			var e httpapi.APIError
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatal(err)
			}
			var old bytes.Buffer
			enc := json.NewEncoder(&old)
			enc.SetIndent("", "  ")
			if err := enc.Encode(tc.old(e)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, old.Bytes()) {
				t.Errorf("body differs from its map encoding:\n got %s\nwant %s", raw, old.Bytes())
			}
		})
	}
}
