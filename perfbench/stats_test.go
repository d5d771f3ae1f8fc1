package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/wire"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty input should read 0")
	}
}

func TestReportableTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0}, {13, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := reportableTail(tc.n); got != tc.want {
			t.Errorf("reportableTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestTallyFailedFrac(t *testing.T) {
	var empty tally
	if empty.failedFrac() != 0 {
		t.Error("nothing attempted should read 0")
	}
	var tl tally
	for _, ok := range []bool{true, false, true, true, false, true, true, true} {
		tl.add(ok)
	}
	if tl.attempted != 8 || tl.failed != 2 || tl.failedFrac() != 0.25 {
		t.Errorf("got %d attempted, %d failed, frac %g; want 8, 2, 0.25", tl.attempted, tl.failed, tl.failedFrac())
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		// root 0..100 with children 10..40 and 30..60 (overlapping, so
		// 10..60 is covered once) and 90..120 (clipped to 90..100).
		{ID: 1, Layer: "client", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "api", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Layer: "api", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 1, Layer: "explore", Start: 90 * ms, End: 120 * ms},
		// a grandchild inside span 2 takes 5ms of its self time.
		{ID: 5, Parent: 2, Layer: "wire", Start: 20 * ms, End: 25 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"client": 40 * ms, "api": 55 * ms, "explore": 30 * ms, "wire": 5 * ms}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], d)
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	sp := tr.begin(nil, "client", "job")
	child := tr.begin(&sp, "api", "submit")
	child.end()
	sp.end()
	if tr.finished() != nil {
		t.Error("a nil tracer recorded spans")
	}
	on := newTracer()
	root := on.begin(nil, "client", "job")
	kid := on.begin(&root, "api", "submit")
	kid.end()
	root.end()
	spans := on.finished()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != spans[0].Op {
		t.Errorf("child span not linked to its root: %+v", spans)
	}
}

// cannedChecker returns a checker whose reference for spec is already
// computed, so answers can be checked without models.
func cannedChecker(spec jobSpec, frontier []wire.Candidate, evaluated int) *checker {
	ck := newChecker("", &golden{})
	ref := &reference{evaluated: evaluated}
	ref.raw, _ = json.Marshal(frontier)
	ref.cands, _ = json.Marshal(canonicalFrontier(frontier))
	ref.once.Do(func() {})
	ck.refs[spec.key()] = ref
	return ck
}

func TestCheckerFailsWrongFrontier(t *testing.T) {
	spec := jobSpec{Pareto: ptr(paretoRequest("gcc", "test"))}
	a := wire.Candidate{Config: wire.ConfigJSON{FetchWidth: 2, ROBSize: 128}, Scores: []float64{1, 3}}
	b := wire.Candidate{Config: wire.ConfigJSON{FetchWidth: 4, ROBSize: 128}, Scores: []float64{2, 2}}
	c := wire.Candidate{Config: wire.ConfigJSON{FetchWidth: 8, ROBSize: 128}, Scores: []float64{2, 2}}
	ref := []wire.Candidate{a, b, c}
	ctx := context.Background()

	ck := cannedChecker(spec, ref, 10)
	if err := ck.checkJob(ctx, spec, &api.Update{Final: true, Evaluated: 10, Candidates: ref}); err != nil {
		t.Fatalf("the reference itself was rejected: %v", err)
	}
	// The same frontier with its two exact ties swapped is correct, but
	// counted.
	if err := ck.checkJob(ctx, spec, &api.Update{Final: true, Evaluated: 10, Candidates: []wire.Candidate{a, c, b}}); err != nil {
		t.Fatalf("tie-swapped frontier rejected: %v", err)
	}
	if ck.tieOrderDiffs != 1 {
		t.Errorf("tieOrderDiffs = %d, want 1", ck.tieOrderDiffs)
	}

	wrongScore := wire.Candidate{Config: a.Config, Scores: []float64{1, 3.0000001}}
	for name, u := range map[string]*api.Update{
		"perturbed score": {Final: true, Evaluated: 10, Candidates: []wire.Candidate{wrongScore, b, c}},
		"missing point":   {Final: true, Evaluated: 10, Candidates: []wire.Candidate{a, b}},
		"wrong design":    {Final: true, Evaluated: 10, Candidates: []wire.Candidate{{Config: wire.ConfigJSON{FetchWidth: 2, ROBSize: 160}, Scores: a.Scores}, b, c}},
		"short sweep":     {Final: true, Evaluated: 9, Candidates: ref},
	} {
		if err := ck.checkJob(ctx, spec, u); !errors.Is(err, errWrongAnswer) {
			t.Errorf("%s: got %v, want a wrong-answer failure", name, err)
		}
	}
	if err := ck.checkJob(ctx, spec, &api.Update{Final: true, Error: &api.Error{Message: "boom"}}); err == nil {
		t.Error("a failed job passed the check")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the harness and the benchmark
// definition in step: same workloads, same metric names and units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bench.Workloads), len(workloadNames))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the harness", i, w.Name, workloadNames[i])
		}
	}
	for _, set := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEndMetrics}, {"per_layer", bench.PerLayer, perLayerMetrics}} {
		if len(set.json) != len(set.defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", set.name, len(set.json), len(set.defs))
		}
		for i, m := range set.json {
			if m.Name != set.defs[i].name || m.Unit != set.defs[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness", set.name, i, m.Name, m.Unit, set.defs[i].name, set.defs[i].unit)
			}
		}
	}
}
