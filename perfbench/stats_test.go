package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func seq(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func TestPercentileRanksFailuresLast(t *testing.T) {
	ok := seq(1000, func(i int) float64 { return float64(i + 1) })
	// 11 failures, each faster than every success: p99's rank (1001 of
	// 1011) still lands on a failure, because failures rank last.
	failed := seq(11, func(i int) float64 { return 0.5 })
	v, supported := percentile(ok, failed, 0.99)
	if !supported || v != 0.5 {
		t.Fatalf("p99 = %v, %v; want the failure's 0.5 ranked above every success", v, supported)
	}
	// With 10 failures the rank (1000 of 1010) is the slowest success.
	v, supported = percentile(ok, failed[:10], 0.99)
	if !supported || v != 1000 {
		t.Fatalf("p99 = %v, %v; want 1000", v, supported)
	}
	if v, _ := percentile(ok, nil, 0.50); v != 500 {
		t.Fatalf("p50 = %v, want 500", v)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{20, 0.50, true},   // rank 10, 10 beyond
		{19, 0.50, false},  // rank 10, 9 beyond
		{0, 0.50, false},
	} {
		succeeded := seq(c.n, func(i int) float64 { return float64(i) })
		if _, ok := percentile(succeeded, nil, c.q); ok != c.want {
			t.Errorf("n=%d q=%v: supported %v, want %v", c.n, c.q, ok, c.want)
		}
		// Failures count as samples like any other.
		if c.n > 0 {
			if _, ok := percentile(succeeded[1:], succeeded[:1], c.q); ok != c.want {
				t.Errorf("n=%d q=%v with a failure: supported %v, want %v", c.n, c.q, ok, c.want)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 130}, {120, 140}}, 70},
		{"nested", []interval{{110, 150}, {120, 130}}, 60},
		{"clipped at both ends", []interval{{90, 105}, {190, 230}}, 85},
		{"outside", []interval{{10, 50}, {250, 300}}, 100},
		{"covering", []interval{{50, 250}}, 0},
		{"unsorted mix", []interval{{190, 220}, {110, 130}, {95, 102}, {125, 140}}, 58},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, bad := range []string{"", "_lead", ".lead", "a b", "p50/ms", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, good := range []string{"p50_ms", "experiments.E20.run_ms", "go.allocs_per_op", "9lives", "a-b", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("%q rejected", good)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(endToEndDefs, perLayerDefs()...) {
		if !validName(d.name) || seen[d.name] {
			t.Errorf("metric %q invalid or repeated", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !validName(w.name) {
			t.Errorf("workload %q invalid", w.name)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jdef struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []jdef `json:"end_to_end"`
		PerLayer []jdef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []jdef, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g != (jdef{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs())
}
