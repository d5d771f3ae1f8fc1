package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tracedFixture boots a fully observable two-peer fleet: peers "p1"
// (the owner jobs are submitted to) and "p2", each with its own
// telemetry, over a shared registry wired to p1's metric registry — the
// production wiring from main.go, in miniature.
func tracedFixture(t *testing.T) (ownerTS, otherTS *httptest.Server) {
	t.Helper()
	ownerTel := newTelemetry("p1")
	store, err := registry.Open(registry.Config{
		Trainer:   tinyTrainer(),
		Metrics:   []sim.Metric{sim.MetricCPI, sim.MetricPower},
		Trainable: workload.Names(),
		Spec:      tinySpec(),
		Obs:       ownerTel.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	owner, ownerTS := startPeer(t, store, ownerTel, testPeerOpts(32), nil)
	other, otherTS := startPeer(t, store, newTelemetry("p2"), testPeerOpts(32), nil)
	join(t, owner, other)
	return ownerTS, otherTS
}

// awaitJob polls GET /v1/jobs/{id} until the job leaves the running
// state, returning its settled status.
func awaitJob(t *testing.T, ts *httptest.Server, id string) jobOutcome {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobOutcome
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 60s", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getText fetches a path and returns the body as a string.
func getText(t *testing.T, ts *httptest.Server, path string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp
}

// TestClusterJobTraceConnected is the observability acceptance
// scenario: a distributed sweep over a two-peer fleet yields one
// connected span tree — a single root on the owning peer, every shard's
// job and phase spans (on both peers) nested under the owner's dispatch
// spans, one request ID threading every annotated span — and Prometheus
// expositions on both peers carrying the core series.
func TestClusterJobTraceConnected(t *testing.T) {
	coordTS, otherTS := tracedFixture(t)

	const reqID = "trace-acceptance-001"
	payload, err := json.Marshal(paretoBody())
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, coordTS.URL+"/v1/pareto", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit answered status %d id %q", resp.StatusCode, submitted.ID)
	}
	if st := awaitJob(t, coordTS, submitted.ID); st.State != api.StateDone {
		t.Fatalf("job settled %q, want done", st.State)
	}

	// The assembled tree: exactly one root, rooted on the owner.
	body, traceResp := getText(t, coordTS, "/v1/jobs/"+submitted.ID+"/trace")
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", traceResp.StatusCode, body)
	}
	var trace obs.JobTrace
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if trace.JobID != submitted.ID || trace.TraceID == "" || trace.Spans == 0 {
		t.Fatalf("trace envelope incomplete: %+v", trace)
	}
	if len(trace.Tree) != 1 {
		t.Fatalf("trace has %d roots, want 1 connected tree", len(trace.Tree))
	}
	root := trace.Tree[0]
	if root.Name != "job:pareto" || root.Node != "p1" {
		t.Fatalf("root span is %s on %s, want job:pareto on p1", root.Name, root.Node)
	}

	// Walk the tree: count spans, bucket them by node, and check every
	// shard's job span hangs under one of the owner's dispatch spans.
	// Every shard's phase:predict span says how many of its designs the
	// screened sweep predicted in full.
	nodes := 0
	jobSpansPerNode := map[string]int{}
	requestIDs := map[string]bool{}
	predictSpans, rescored := 0, 0
	var walk func(n *obs.TraceNode, parent *obs.TraceNode)
	walk = func(n *obs.TraceNode, parent *obs.TraceNode) {
		nodes++
		if n.Name == "phase:predict" {
			predictSpans++
			r, err := strconv.Atoi(n.Attrs["designs_rescored"])
			if err != nil || r < 1 {
				t.Errorf("phase:predict on %s has designs_rescored %q, want a positive count", n.Node, n.Attrs["designs_rescored"])
			}
			rescored += r
		}
		if id := n.Attrs["request_id"]; id != "" {
			requestIDs[id] = true
		}
		if strings.HasPrefix(n.Name, "job:") && n != root {
			jobSpansPerNode[n.Node]++
			if parent == nil || parent.Name != "dispatch" {
				t.Errorf("shard job span on %s not nested under a dispatch span", n.Node)
			}
		}
		if n.Name == "dispatch" && n.Node != "p1" {
			t.Errorf("dispatch span attributed to %s, want the owner p1", n.Node)
		}
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	walk(root, nil)
	if predictSpans == 0 || rescored > 300 {
		t.Errorf("%d phase:predict spans rescored %d designs, want some spans and at most the 300 designs", predictSpans, rescored)
	}
	if nodes != trace.Spans {
		t.Errorf("tree holds %d spans, envelope reports %d — duplicates or orphans", nodes, trace.Spans)
	}
	for _, peer := range []string{"p1", "p2"} {
		if jobSpansPerNode[peer] == 0 {
			t.Errorf("no shard job span from peer %s — the trace does not cover the whole fleet", peer)
		}
	}
	if len(requestIDs) != 1 || !requestIDs[reqID] {
		t.Errorf("request IDs on spans = %v, want exactly %q threading the fan-out", requestIDs, reqID)
	}

	// The owner's Prometheus exposition carries per-peer shard latency
	// histograms and the three-column fault taxonomy.
	metrics, metricsResp := getText(t, coordTS, "/v1/metricsz")
	if metricsResp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status %d", metricsResp.StatusCode)
	}
	if got := metricsResp.Header.Get("Content-Type"); got != obs.ContentType {
		t.Errorf("metricsz content type %q, want %q", got, obs.ContentType)
	}
	for _, workerTS := range []*httptest.Server{coordTS, otherTS} {
		name := cluster.NewHTTP(workerTS.URL, nil).Name()
		if !strings.Contains(metrics, `dsed_cluster_shard_latency_ms_bucket{worker="`+name+`"`) {
			t.Errorf("no shard latency histogram for worker %s", name)
		}
		for _, fault := range []string{"failures", "rejections", "busy"} {
			if !strings.Contains(metrics, `dsed_cluster_worker_`+fault+`_total{worker="`+name+`"`) {
				t.Errorf("no %s counter for worker %s", fault, name)
			}
		}
	}
	checkPrometheusFormat(t, "owner", metrics)

	// The owner's exposition also carries the registry training
	// histogram (its metric registry backs the shared store); both
	// peers carry the sweep-path chunk instruments of the shards they
	// evaluated.
	for _, series := range []string{
		`dsed_registry_train_ms_bucket{benchmark="gcc"`,
		"dsed_registry_cache_total",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("owner exposition missing %s", series)
		}
	}
	for name, ts := range map[string]*httptest.Server{"owner": coordTS, "other": otherTS} {
		body, resp := getText(t, ts, "/v1/metricsz")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s metricsz status %d", name, resp.StatusCode)
		}
		for _, series := range []string{"dsed_explore_chunk_ms_bucket", "dsed_jobs_finished_total"} {
			if !strings.Contains(body, series) {
				t.Errorf("%s exposition missing %s", name, series)
			}
		}
		checkPrometheusFormat(t, name, body)
	}
}

// checkPrometheusFormat asserts every sample line is "name value" —
// two space-separated fields — and every series has HELP/TYPE headers
// before its first sample.
func checkPrometheusFormat(t *testing.T, tier, body string) {
	t.Helper()
	if body == "" || !strings.HasSuffix(body, "\n") {
		t.Errorf("%s exposition must be newline-terminated", tier)
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("%s exposition: malformed comment %q", tier, line)
			}
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("%s exposition: malformed sample %q", tier, line)
		}
	}
}
