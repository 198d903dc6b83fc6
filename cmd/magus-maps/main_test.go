package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"magus/internal/campaign"
	"magus/internal/experiments"
)

// testEnv is the maps tests' environment: no model snapshots.
var testEnv = &campaign.Env{Engines: campaign.NewEngineCache(0)}

// TestWriteArtifactsSmoke renders a miniature market and checks every
// artifact lands on disk, non-empty and with the right magic bytes.
func TestWriteArtifactsSmoke(t *testing.T) {
	maps, err := experiments.RunMapsSized(testEnv, 1, 3000, 300)
	if err != nil {
		t.Fatal(err)
	}
	if maps.String() == "" {
		t.Error("empty ASCII rendering")
	}
	dir := filepath.Join(t.TempDir(), "figs") // writeArtifacts must create it
	written, err := writeArtifacts(maps, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{
		"pathloss.pgm":     []byte("P2"),
		"coverage.ppm":     []byte("P3"),
		"topology.geojson": []byte("{"),
		"coverage.geojson": []byte("{"),
	}
	if len(written) != len(want) {
		t.Fatalf("wrote %d files %v, want %d", len(written), written, len(want))
	}
	for _, path := range written {
		name := filepath.Base(path)
		magic, ok := want[name]
		if !ok {
			t.Errorf("unexpected artifact %s", name)
			continue
		}
		delete(want, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
			continue
		}
		if !bytes.HasPrefix(bytes.TrimSpace(data), magic) {
			t.Errorf("%s starts with %q, want prefix %q", name, data[:min(4, len(data))], magic)
		}
	}
	for name := range want {
		t.Errorf("missing artifact %s", name)
	}
}

// TestWriteArtifactsNoGeoJSON: the default path writes only the images.
func TestWriteArtifactsNoGeoJSON(t *testing.T) {
	maps, err := experiments.RunMapsSized(testEnv, 1, 3000, 300)
	if err != nil {
		t.Fatal(err)
	}
	written, err := writeArtifacts(maps, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 2 {
		t.Fatalf("wrote %v, want pathloss + coverage only", written)
	}
	for _, path := range written {
		if strings.HasSuffix(path, ".geojson") {
			t.Errorf("geojson written without the flag: %s", path)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
