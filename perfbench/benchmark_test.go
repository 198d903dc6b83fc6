package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// metric tables must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func units(m map[string]Metric) map[string]string {
	out := map[string]string{}
	for k, v := range m {
		out[k] = v.Unit
	}
	return out
}

func sameMetrics(t *testing.T, what string, got map[string]string, want map[string]string) {
	t.Helper()
	var names []string
	for k := range want {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if u, ok := got[k]; !ok || u != want[k] {
			t.Errorf("%s: BENCHMARK.json lists %s [%s]; the benchmark prints [%s] (present %v)", what, k, want[k], u, ok)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: the benchmark prints %s, which BENCHMARK.json does not list", what, k)
		}
	}
}

func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v", names)
	}
	for _, n := range names {
		if _, ok := workloadByName(n); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown", n)
		}
	}

	e2e := map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, w := range workloads {
		res := summarize(w, nil, time.Second)
		res.Metrics["setup_s"] = Metric{1, "s"}
		sameMetrics(t, w.Name+" end-to-end", units(res.Metrics), e2e)
	}

	layer := map[string]string{}
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}
	lm := newLayerMetrics(&replayer{tr: newTracer()}, nil)
	lm.overheads(nil, nil, nil)
	lm.layers()
	sameMetrics(t, "per-layer", units(lm.metrics), layer)
}
