package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/registry"
	"repro/internal/wire"
)

// TestWarmEndpoint drives the admin pre-warm hook: training happens once,
// re-warming is free, and unknown benchmarks answer 404.
func TestWarmEndpoint(t *testing.T) {
	ct := &countTrainer{Trainer: tinyTrainer()}
	store := openTestStore(t, "", ct)
	ts := httptest.NewServer(NewServer(context.Background(), store, 0, nil, nil).Handler())
	defer ts.Close()

	var resp wire.WarmResponse
	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"twolf"}}, &resp); status != http.StatusOK {
		t.Fatalf("warm status %d", status)
	}
	if ct.calls.Load() != 1 {
		t.Fatalf("warming one benchmark ran %d trainings, want 1", ct.calls.Load())
	}
	if resp.Trainings != 1 {
		t.Errorf("warm response reports %d trainings, want 1", resp.Trainings)
	}

	// Re-warming answers from memory.
	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"twolf"}}, nil); status != http.StatusOK {
		t.Fatalf("re-warm status %d", status)
	}
	if ct.calls.Load() != 1 {
		t.Fatalf("re-warming retrained (%d total runs)", ct.calls.Load())
	}

	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"doom"}}, nil); status != http.StatusNotFound {
		t.Errorf("unknown benchmark warm status %d, want 404", status)
	}
	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("empty warm status %d, want 400", status)
	}

	// A partially bad list still warms the good benchmarks and reports
	// the failures in a 200, so a peer fanning it out keeps the
	// placements.
	var partial wire.WarmResponse
	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"doom", "gap"}}, &partial); status != http.StatusOK {
		t.Fatalf("partial warm status %d, want 200", status)
	}
	if partial.Trainings != 1 || len(partial.Errors) != 1 {
		t.Errorf("partial warm reported trainings=%d errors=%v, want 1 training and 1 error", partial.Trainings, partial.Errors)
	}
	if _, ok := store.Get("gap", store.Metrics()[0]); !ok {
		t.Error("gap did not warm because its listmate was unknown")
	}
}

// shardSubmission matches the requests a coordinating peer opens a
// shard with: a /v1 job submission carrying the local scope marker
// (a client's fleet-scope submission carries none). The body is read
// and restored, so the wrapped handler still decodes it.
func shardSubmission(r *http.Request) bool {
	if r.URL.Path != "/v1/pareto" && r.URL.Path != "/v1/sweeps" {
		return false
	}
	body, err := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	return err == nil && bytes.Contains(body, []byte(`"scope":"`+wire.ScopeLocal+`"`))
}

// killable wraps a peer handler and aborts every shard-serving
// connection once its budget of shard submissions is spent — simulating
// a peer killed mid-sweep. Job routes (stream, status, cancel) die with
// it, so a shard whose submission slipped through still fails at its
// stream.
type killable struct {
	next   http.Handler
	budget atomic.Int64
}

func (k *killable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case shardSubmission(r):
		if k.budget.Add(-1) < 0 {
			panic(http.ErrAbortHandler)
		}
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/") && k.budget.Load() < 0:
		panic(http.ErrAbortHandler)
	}
	k.next.ServeHTTP(w, r)
}

// gatedHandler parks shard submissions until released, holding a sweep
// in flight while the test mutates the fleet around it.
type gatedHandler struct {
	next    http.Handler
	release chan struct{}
	once    sync.Once
}

func (g *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if shardSubmission(r) {
		g.once.Do(func() { <-g.release })
	}
	g.next.ServeHTTP(w, r)
}

// countingHandler counts served shard submissions.
type countingHandler struct {
	next  http.Handler
	calls atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if shardSubmission(r) {
		c.calls.Add(1)
	}
	c.next.ServeHTTP(w, r)
}

// testPeerOpts are the peer options the fleet tests boot with: no
// hedging, a long gossip interval (no
// background loop runs in tests, so nothing ages anyway).
func testPeerOpts(shardSize int) peerOptions {
	return peerOptions{shardSize: shardSize, interval: time.Minute, replicate: 1}
}

// startPeer boots one symmetric peer over store on a real loopback
// listener. Its self address is the listener's host:port, exactly what
// -addr would gossip; wrap, when non-nil, injects faults in front of
// its handler.
func startPeer(t *testing.T, store *registry.Store, tel *telemetry, opts peerOptions, wrap func(http.Handler) http.Handler) (*peerServer, *httptest.Server) {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	self := ts.Listener.Addr().String()
	if tel == nil {
		tel = newTelemetry(self)
	}
	ps, err := newPeerServer(NewServer(context.Background(), store, 0, nil, tel), self, nil, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = ps.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts.Config.Handler = h
	ts.Start()
	t.Cleanup(ts.Close)
	return ps, ts
}

// join runs one full gossip exchange from every peer to every other and
// projects the result onto each peer's scheduling fleet — what a few
// background rounds would do, minus the randomness and the clock.
func join(t *testing.T, peers ...*peerServer) {
	t.Helper()
	ctx := context.Background()
	for _, p := range peers {
		p.advertise()
	}
	for pass := 0; pass < 2; pass++ {
		for _, p := range peers {
			for _, q := range peers {
				if p != q {
					p.exchange(ctx, q.self)
				}
			}
		}
	}
	for _, p := range peers {
		p.syncGossipMembership()
		if got := len(p.coord.Workers()); got != len(peers) {
			t.Fatalf("peer %s schedules over %d members after gossip, want %d", p.self, got, len(peers))
		}
	}
}

// peerFleet boots two peers over the shared test registry (identical
// models, so any peer answers any shard identically) and joins them.
// Jobs are submitted to the first; the second dies after budget shard
// submissions.
func peerFleet(t *testing.T, shardSize int, budget int64) (owner, other *httptest.Server) {
	t.Helper()
	store := testServer(t).store
	p1, ts1 := startPeer(t, store, nil, testPeerOpts(shardSize), nil)
	p2, ts2 := startPeer(t, store, nil, testPeerOpts(shardSize), func(h http.Handler) http.Handler {
		k := &killable{next: h}
		k.budget.Store(budget)
		return k
	})
	join(t, p1, p2)
	return ts1, ts2
}

// singleTS serves the shared test registry from one plain daemon: the
// single-process reference every fleet answer must equal.
func singleTS(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(testServer(t).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func sortedCandidateJSON(t *testing.T, cands []wire.Candidate) []string {
	t.Helper()
	out := make([]string, len(cands))
	for i, c := range cands {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// sameFrontier fails the test unless two frontiers hold byte-identical
// points (up to ordering).
func sameFrontier(t *testing.T, got, want []wire.Candidate) {
	t.Helper()
	gotKeys := sortedCandidateJSON(t, got)
	wantKeys := sortedCandidateJSON(t, want)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("frontier has %d points, single-process %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("frontier point %d differs:\n  fleet  %s\n  single %s", i, gotKeys[i], wantKeys[i])
		}
	}
}

func paretoBody() map[string]any {
	return map[string]any{
		"benchmark":  "gcc",
		"objectives": []map[string]any{{"metric": "CPI"}, {"metric": "Power"}},
		"space":      "test",
		"sample":     300,
	}
}

// TestClusterParetoMatchesSingleProcess is the acceptance scenario: a
// two-peer fleet answers a /v1/pareto job with a frontier byte-identical
// (up to ordering) to a single daemon's on the same sweep spec.
func TestClusterParetoMatchesSingleProcess(t *testing.T) {
	owner, _ := peerFleet(t, 32, 1<<30)

	var single wire.ParetoResponse
	if status := jobResult(t, singleTS(t), "/v1/pareto", paretoBody(), &single); status != http.StatusOK {
		t.Fatalf("single-process pareto status %d", status)
	}
	var dist wire.ClusterParetoResponse
	if status := jobResult(t, owner, "/v1/pareto", paretoBody(), &dist); status != http.StatusOK {
		t.Fatalf("fleet pareto status %d", status)
	}
	if dist.Evaluated != single.Evaluated {
		t.Fatalf("fleet evaluated %d designs, single process %d", dist.Evaluated, single.Evaluated)
	}
	if dist.Workers != 2 || dist.Shards != (300+31)/32 {
		t.Errorf("distribution accounting workers=%d shards=%d, want 2/%d", dist.Workers, dist.Shards, (300+31)/32)
	}
	sameFrontier(t, dist.Frontier, single.Frontier)
}

// TestClusterParetoSurvivesWorkerDeath kills the second peer mid-sweep
// (it serves two shards, then aborts every connection): the owner must
// re-dispatch its shards and still produce the single-process frontier,
// and its /v1/healthz must book the deaths as failures against the
// dead peer.
func TestClusterParetoSurvivesWorkerDeath(t *testing.T) {
	owner, other := peerFleet(t, 16, 2)

	var single wire.ParetoResponse
	if status := jobResult(t, singleTS(t), "/v1/pareto", paretoBody(), &single); status != http.StatusOK {
		t.Fatalf("single-process pareto status %d", status)
	}
	var dist wire.ClusterParetoResponse
	if status := jobResult(t, owner, "/v1/pareto", paretoBody(), &dist); status != http.StatusOK {
		t.Fatalf("fleet pareto with a dying peer status %d", status)
	}
	if dist.Retries == 0 {
		t.Fatal("killed peer produced no retries — the death was not exercised")
	}
	if dist.Evaluated != single.Evaluated {
		t.Fatalf("fleet evaluated %d designs after the death, want %d", dist.Evaluated, single.Evaluated)
	}
	sameFrontier(t, dist.Frontier, single.Frontier)

	health := peerHealth(t, owner)
	if health.Retries == 0 {
		t.Error("healthz reports no retries despite the killed peer")
	}
	dead := strings.TrimPrefix(other.URL, "http://")
	for _, p := range health.Peers {
		if p.Addr == dead && p.Failures == 0 {
			t.Errorf("healthz books no failures against the killed peer: %+v", p)
		}
	}
}

// TestClusterSweepMatchesSingleProcess: the distributed constrained
// top-K agrees rank for rank with a single daemon's.
func TestClusterSweepMatchesSingleProcess(t *testing.T) {
	owner, _ := peerFleet(t, 32, 1<<30)
	body := map[string]any{
		"benchmark":   "gcc",
		"objectives":  []map[string]any{{"metric": "CPI"}, {"metric": "Power", "kind": "worst"}},
		"space":       "test",
		"sample":      200,
		"top_k":       5,
		"constraints": []map[string]any{{"objective": 1, "max": 1000.0}},
	}
	var single wire.SweepResponse
	if status := jobResult(t, singleTS(t), "/v1/sweeps", body, &single); status != http.StatusOK {
		t.Fatalf("single-process sweep status %d", status)
	}
	var dist wire.ClusterSweepResponse
	if status := jobResult(t, owner, "/v1/sweeps", body, &dist); status != http.StatusOK {
		t.Fatalf("fleet sweep status %d", status)
	}
	if dist.Evaluated != single.Evaluated || dist.Feasible != single.Feasible {
		t.Fatalf("fleet evaluated/feasible %d/%d, single %d/%d",
			dist.Evaluated, dist.Feasible, single.Evaluated, single.Feasible)
	}
	if len(dist.Candidates) != len(single.Candidates) {
		t.Fatalf("fleet kept %d candidates, single %d", len(dist.Candidates), len(single.Candidates))
	}
	for i := range single.Candidates {
		sc, err := json.Marshal(single.Candidates[i])
		if err != nil {
			t.Fatal(err)
		}
		dc, err := json.Marshal(dist.Candidates[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(sc) != string(dc) {
			t.Fatalf("rank %d differs:\n  fleet  %s\n  single %s", i, dc, sc)
		}
	}
}

// TestElasticFleetSweep is the acceptance scenario for dynamic
// membership: a peer fleet serves a sweep during which a third peer
// joins through gossip and one original dies — and the merged frontier
// is still byte-identical (up to ordering) to the single-process answer.
func TestElasticFleetSweep(t *testing.T) {
	store := testServer(t).store
	opts := testPeerOpts(16)

	// The owner parks its own shards until released, so the sweep is
	// verifiably in flight while the fleet changes shape.
	gate := &gatedHandler{release: make(chan struct{})}
	owner, ownerTS := startPeer(t, store, nil, opts, func(h http.Handler) http.Handler {
		gate.next = h
		return gate
	})
	// The second original serves one shard, then aborts every
	// connection — the mid-sweep death.
	dying, _ := startPeer(t, store, nil, opts, func(h http.Handler) http.Handler {
		k := &killable{next: h}
		k.budget.Store(1)
		return k
	})
	// The late joiner counts the shards it serves.
	late := &countingHandler{}
	joiner, _ := startPeer(t, store, nil, opts, func(h http.Handler) http.Handler {
		late.next = h
		return late
	})
	join(t, owner, dying)

	type answer struct {
		status int
		resp   wire.ClusterParetoResponse
	}
	done := make(chan answer, 1)
	go func() {
		var dist wire.ClusterParetoResponse
		status := jobResult(t, ownerTS, "/v1/pareto", paretoBody(), &dist)
		done <- answer{status, dist}
	}()

	// Mid-sweep: the third peer gossips with the owner, the owner's
	// projection admits it to the scheduling fleet, then the gate opens.
	joiner.advertise()
	joiner.exchange(context.Background(), owner.self)
	owner.syncGossipMembership()
	if got := len(owner.coord.Workers()); got != 3 {
		t.Fatalf("owner schedules over %d members after the join, want 3", got)
	}
	close(gate.release)

	a := <-done
	if a.status != http.StatusOK {
		t.Fatalf("elastic sweep status %d", a.status)
	}
	joinerShards := late.calls.Load()
	var single wire.ParetoResponse
	if status := jobResult(t, singleTS(t), "/v1/pareto", paretoBody(), &single); status != http.StatusOK {
		t.Fatalf("single-process pareto status %d", status)
	}
	if a.resp.Evaluated != single.Evaluated {
		t.Fatalf("elastic sweep evaluated %d designs, single process %d", a.resp.Evaluated, single.Evaluated)
	}
	if a.resp.Retries == 0 {
		t.Error("the dying peer produced no retries — the death was not exercised")
	}
	if joinerShards == 0 {
		t.Error("the mid-sweep joiner served no shards")
	}
	sameFrontier(t, a.resp.Frontier, single.Frontier)
}

// TestSuspectPeerLeavesSchedulingFleet: a peer the owner's gossip table
// marks suspect leaves the owner's scheduling fleet at the next
// projection, with no lease to wait out; once it refutes the suspicion
// through gossip it comes back as a fresh member with zeroed scheduling
// stats.
func TestSuspectPeerLeavesSchedulingFleet(t *testing.T) {
	store := testServer(t).store
	owner, ownerTS := startPeer(t, store, nil, testPeerOpts(16), nil)
	other, _ := startPeer(t, store, nil, testPeerOpts(16), nil)
	join(t, owner, other)
	name := "http://" + other.self

	// A fleet job gives the other peer scheduling history.
	if status := jobResult(t, ownerTS, "/v1/pareto", paretoBody(), nil); status != http.StatusOK {
		t.Fatalf("fleet pareto status %d", status)
	}
	row := func() (cluster.MemberStatus, bool) {
		for _, m := range owner.coord.Members() {
			if m.Name == name {
				return m, true
			}
		}
		return cluster.MemberStatus{}, false
	}
	if m, _ := row(); m.ShardsDone == 0 {
		t.Fatalf("the other peer served no shards of the fleet job: %+v", m)
	}

	// A suspicion reaches the owner by gossip; the next projection drops
	// the peer from scheduling while gossip still lists it.
	var suspect wire.GossipEntry
	for _, e := range owner.table.Snapshot() {
		if e.Addr == other.self {
			suspect = e
		}
	}
	suspect.State = wire.GossipSuspect
	owner.table.Merge([]wire.GossipEntry{suspect})
	owner.syncGossipMembership()
	if _, ok := row(); ok {
		t.Fatalf("suspect peer still schedulable: %v", owner.coord.Workers())
	}
	for _, p := range peerHealth(t, ownerTS).Peers {
		if p.Addr == other.self && (p.State != wire.GossipSuspect || p.Inflight != nil) {
			t.Errorf("suspect peer's healthz row %+v, want a gossip-only suspect row", p)
		}
	}

	// The peer hears the rumour in the next exchange and refutes it; the
	// owner's projection readmits it with a fresh record.
	owner.exchange(context.Background(), other.self)
	if state := owner.table.State(other.self); state != wire.GossipAlive {
		t.Fatalf("refuted peer is %q in the owner's table, want alive", state)
	}
	owner.syncGossipMembership()
	m, ok := row()
	if !ok {
		t.Fatalf("refuted peer not back in the scheduling fleet: %v", owner.coord.Workers())
	}
	if m.ShardsDone != 0 || m.Inflight != 0 || m.EWMAPerDesignMS != 0 {
		t.Errorf("rejoined peer kept its old scheduling stats: %+v", m)
	}
}

// peerHealthz is the part of a peer's /v1/healthz the fleet tests read.
type peerHealthz struct {
	Status  string         `json:"status"`
	Mode    string         `json:"mode"`
	Hedges  map[string]int `json:"hedges"`
	Retries int            `json:"retries"`
	Alive   int            `json:"alive_peers"`
	Models  []modelInfo    `json:"models"`
	Peers   []struct {
		Addr        string         `json:"addr"`
		State       string         `json:"state"`
		Benchmarks  []string       `json:"benchmarks"`
		QueueDepths map[string]int `json:"queue_depths"`
		Failures    int            `json:"failures"`
		Rejections  int            `json:"rejections"`
		Busy        int            `json:"busy"`
		Inflight    *int           `json:"inflight"`
	} `json:"peers"`
}

func peerHealth(t *testing.T, ts *httptest.Server) peerHealthz {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h peerHealthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMembershipEndpoints drives the gossip membership surface over
// HTTP: a digest exchange, validation of what enters the table, and the
// /v1/healthz fleet report with its failures/rejections split.
func TestMembershipEndpoints(t *testing.T) {
	store := testServer(t).store
	owner, ownerTS := startPeer(t, store, nil, testPeerOpts(32), nil)
	other, _ := startPeer(t, store, nil, testPeerOpts(32), nil)

	// A push-pull exchange: the owner merges the sender's entry and
	// answers with its own digest, self first.
	other.advertise()
	var resp wire.GossipResponse
	if status := postJSON(t, ownerTS, "/v1/gossip", wire.GossipRequest{From: other.self, Entries: other.table.Digest()}, &resp); status != http.StatusOK {
		t.Fatalf("gossip status %d", status)
	}
	if resp.From != owner.self || len(resp.Entries) != 2 || resp.Entries[0].Addr != owner.self {
		t.Fatalf("gossip answer %+v, want the owner's 2-entry digest, self first", resp)
	}

	// Malformed digests never reach the table.
	for name, req := range map[string]wire.GossipRequest{
		"no sender":      {},
		"hostless peer":  {From: other.self, Entries: []wire.GossipEntry{{Addr: ":9401", State: wire.GossipAlive}}},
		"portless peer":  {From: other.self, Entries: []wire.GossipEntry{{Addr: "peer-3", State: wire.GossipAlive}}},
		"negative depth": {From: other.self, Entries: []wire.GossipEntry{{Addr: "peer-3:1", State: wire.GossipAlive, QueueDepths: map[string]int{"gcc": -1}}}},
	} {
		if status := postJSON(t, ownerTS, "/v1/gossip", req, nil); status != http.StatusBadRequest {
			t.Errorf("%s: gossip status %d, want 400", name, status)
		}
	}
	if n := len(owner.table.Snapshot()); n != 2 {
		t.Fatalf("owner's table holds %d members after the rejected digests, want 2", n)
	}

	// Projection admits both peers; the report lists each with its
	// gossiped inventory and scheduling columns.
	join(t, owner, other)
	h := peerHealth(t, ownerTS)
	if h.Mode != "peer" || h.Alive != 2 || len(h.Peers) != 2 {
		t.Fatalf("healthz mode=%q alive=%d peers=%d, want peer/2/2", h.Mode, h.Alive, len(h.Peers))
	}
	if _, ok := h.Hedges["won"]; !ok {
		t.Errorf("healthz lacks hedge totals: %+v", h.Hedges)
	}
	if len(h.Models) == 0 {
		t.Error("healthz lost the model inventory")
	}
	for _, p := range h.Peers {
		if p.State != wire.GossipAlive || len(p.Benchmarks) == 0 || p.Benchmarks[0] != "gcc" || p.Inflight == nil {
			t.Errorf("peer row incomplete: %+v", p)
		}
	}

	// A deterministic 4xx (unknown benchmark) books a rejection, not a
	// failure: operators can tell a bad request from a dead peer.
	body := map[string]any{
		"benchmark":  "doom",
		"objectives": []map[string]any{{"metric": "CPI"}},
		"space":      "test",
		"sample":     40,
	}
	if status := jobResult(t, ownerTS, "/v1/pareto", body, nil); status != http.StatusNotFound {
		t.Fatalf("unknown benchmark status %d, want the peer's 404", status)
	}
	h = peerHealth(t, ownerTS)
	failures, rejections := 0, 0
	for _, p := range h.Peers {
		failures += p.Failures
		rejections += p.Rejections
	}
	if failures != 0 {
		t.Errorf("a 4xx verdict booked %d transport failures, want 0", failures)
	}
	if rejections == 0 {
		t.Error("a 4xx verdict booked no rejection")
	}
	if h.Status != "ok" {
		t.Errorf("a 4xx verdict degraded fleet health to %q", h.Status)
	}
}

// TestQueueDepthGossip: per-benchmark queue depths advertised in a
// gossip entry surface in the receiving peer's /v1/healthz rows, and a
// peer's own running jobs show up in the digest it gossips.
func TestQueueDepthGossip(t *testing.T) {
	store := testServer(t).store
	owner, ownerTS := startPeer(t, store, nil, testPeerOpts(32), nil)

	req := wire.GossipRequest{From: "127.0.0.1:1", Entries: []wire.GossipEntry{{
		Addr: "127.0.0.1:1", Incarnation: 1, Beat: 1, State: wire.GossipAlive,
		Benchmarks: []string{"gcc"}, QueueDepths: map[string]int{"gcc": 3},
	}}}
	if status := postJSON(t, ownerTS, "/v1/gossip", req, nil); status != http.StatusOK {
		t.Fatalf("gossip status %d", status)
	}
	found := false
	for _, p := range peerHealth(t, ownerTS).Peers {
		if p.Addr == "127.0.0.1:1" {
			found = p.QueueDepths["gcc"] == 3
		}
	}
	if !found {
		t.Errorf("healthz lost the gossiped queue depths: %+v", peerHealth(t, ownerTS).Peers)
	}

	// The owner's own running job is advertised on its next round.
	job, err := owner.srv.jobs.Start(api.JobPareto, "gcc", 10, func(ctx context.Context, pub api.Publisher) (any, api.Update, error) {
		<-ctx.Done()
		return nil, api.Update{}, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	owner.advertise()
	if self := owner.table.Digest()[0]; self.QueueDepths["gcc"] != 1 {
		t.Errorf("own digest advertises depths %v, want gcc:1", self.QueueDepths)
	}
	if _, err := owner.srv.jobs.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	<-job.Done()
}

// TestFleetWarmPartialFailure: a fleet warm that reaches only some
// peers keeps the successful placements and itemises the failure in a
// 200; a warm the whole fleet rejects forwards the peers' own verdict.
func TestFleetWarmPartialFailure(t *testing.T) {
	store := testServer(t).store
	owner, ownerTS := startPeer(t, store, nil, testPeerOpts(32), nil)
	broken, _ := startPeer(t, store, nil, testPeerOpts(32), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/warm" {
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	})
	join(t, owner, broken)

	var resp wire.WarmResponse
	if status := postJSON(t, ownerTS, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"gcc"}}, &resp); status != http.StatusOK {
		t.Fatalf("partial fleet warm status %d, want 200", status)
	}
	if len(resp.Errors) != 1 || !strings.Contains(resp.Errors[0], broken.self) {
		t.Errorf("partial fleet warm errors %v, want one naming the broken peer", resp.Errors)
	}
	if status := postJSON(t, ownerTS, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"gcc"}, Scope: wire.ScopeLocal}, nil); status != http.StatusOK {
		t.Errorf("local-scope warm status %d, want 200", status)
	}
}

// TestClusterRequestValidation: malformed fleet requests die at the
// accepting peer without touching the fleet.
func TestClusterRequestValidation(t *testing.T) {
	owner, _ := peerFleet(t, 32, 0) // the second peer is dead from the start
	cases := []struct {
		name string
		path string
		body map[string]any
		want int
	}{
		{"no objectives", "/v1/pareto", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{}}, http.StatusBadRequest},
		{"bad space", "/v1/pareto", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI"}}, "space": "warp"}, http.StatusBadRequest},
		{"bad kind", "/v1/sweeps", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI", "kind": "median"}}}, http.StatusBadRequest},
		{"unknown metric pareto", "/v1/pareto", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "Tempo"}}, "space": "test", "sample": 10}, http.StatusBadRequest},
		{"unknown metric sweep", "/v1/sweeps", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "Tempo"}}, "space": "test", "sample": 10}, http.StatusBadRequest},
		{"bad objective index", "/v1/sweeps", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI"}}, "objective": 4}, http.StatusBadRequest},
		{"bad constraint index", "/v1/sweeps", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI"}}, "constraints": []map[string]any{{"objective": 2, "max": 1.0}}}, http.StatusBadRequest},
		{"bad scope", "/v1/pareto", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI"}}, "scope": "galaxy"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if status := postJSON(t, owner, tc.path, tc.body, nil); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		}
	}
}

// TestClusterUnknownBenchmark: a benchmark no peer can train is the
// fleet's deterministic 404 verdict, forwarded unchanged — the fleet
// answers exactly like a single daemon, with no fleet-wide retry storm.
func TestClusterUnknownBenchmark(t *testing.T) {
	owner, _ := peerFleet(t, 32, 1<<30)
	body := map[string]any{
		"benchmark":  "doom",
		"objectives": []map[string]any{{"metric": "CPI"}},
		"space":      "test",
		"sample":     50,
	}
	status, st := runJob(t, owner, "/v1/pareto", body)
	if status != http.StatusNotFound {
		t.Errorf("unknown benchmark fleet status %d, want 404 (the peer's own verdict)", status)
	}
	if st.Error == nil || st.Error.Code != api.CodeNotFound || st.Error.Message == "" {
		t.Errorf("rejection carried no structured error: %+v", st.Error)
	}
}
