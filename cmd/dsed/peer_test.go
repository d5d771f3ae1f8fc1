package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// testPeer wires a peer server around a fresh Server over the shared
// test store: enough for routing and adoption-guard tests, with no
// gossip loop running. The job table is the peer's own, so a job one
// test adopts is not still there when the next run of it starts.
func testPeer(t *testing.T, self string) *peerServer {
	t.Helper()
	srv := NewServer(t.Context(), testServer(t).store, 0, nil, nil)
	ps, err := newPeerServer(srv, self, nil, peerOptions{
		interval: time.Second, replicate: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// markDead plants a dead verdict for addr in the peer's gossip table.
func markDead(ps *peerServer, addr string) {
	ps.table.Merge([]wire.GossipEntry{{Addr: addr, Incarnation: 1, State: wire.GossipDead}})
}

func paretoReplica(jobID, owner string, replicas []string) wire.ReplicateRequest {
	return wire.ReplicateRequest{
		JobID:    jobID,
		Kind:     wire.ReplicaPareto,
		Owner:    owner,
		Replicas: replicas,
		Pareto: &wire.ParetoRequest{
			Benchmark:  "gcc",
			Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
			SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 32},
		},
		Benchmark: "gcc",
		Designs:   32,
		Seq:       3,
	}
}

// A Done notice must not delete the replica entry: it becomes a routing
// tombstone that outranks any straggling state push, so a finished job
// can neither 404 through a replica nor be resurrected by a late push.
func TestReplicaTableRetire(t *testing.T) {
	tbl := &replicaTable{entries: make(map[string]replicaEntry)}
	tbl.put(paretoReplica("job-1", "owner:1", nil))
	tbl.retire(wire.ReplicateRequest{JobID: "job-1", Owner: "adopter:2", Done: true})

	st, ok := tbl.get("job-1")
	if !ok || !st.Done {
		t.Fatalf("retired entry = %+v, ok=%v; want a Done tombstone", st, ok)
	}
	if st.Owner != "adopter:2" {
		t.Fatalf("tombstone owner = %q, want the retiring owner adopter:2", st.Owner)
	}

	late := paretoReplica("job-1", "owner:1", nil)
	late.Seq = 99
	tbl.put(late)
	if st, _ := tbl.get("job-1"); !st.Done {
		t.Fatal("straggling state push resurrected a retired job")
	}

	tbl.expire(0)
	if _, ok := tbl.get("job-1"); ok {
		t.Fatal("expire left the tombstone past its TTL")
	}
}

// routeJob over a finished job's tombstone must follow the job to the
// node that finished it while that node lives, and only 404 once the
// fleet has declared that node dead too. Before this, a Done notice
// deleted the entry and a trace fetch through a non-owner peer 404ed
// the moment the job completed.
func TestRouteJobDoneTombstoneRedirects(t *testing.T) {
	ps := testPeer(t, "127.0.0.1:1")
	ps.replicas.retire(wire.ReplicateRequest{JobID: "job-done", Owner: "127.0.0.1:2", Done: true})

	h := ps.routeJob(ps.srv.tel.handleJobTrace)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/job-done/trace", nil)
	req.SetPathValue("id", "job-done")
	h(rec, req)
	if rec.Code != http.StatusTemporaryRedirect {
		t.Fatalf("tombstone with live owner: status %d, want 307", rec.Code)
	}
	if loc := rec.Header().Get("Location"); loc != "http://127.0.0.1:2/v1/jobs/job-done/trace" {
		t.Fatalf("Location = %q, want the finishing owner", loc)
	}

	markDead(ps, "127.0.0.1:2")
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodGet, "/v1/jobs/job-done/trace", nil)
	req.SetPathValue("id", "job-done")
	h(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("tombstone with dead owner: status %d, want 404", rec.Code)
	}
}

// A suspicion must not reorder the adoption line: while the preferred
// successor is merely suspect, the next replica defers instead of
// adopting — skipping on suspicion lets two replicas each conclude
// they are first in line and fork the job. Only the hard dead verdict
// passes the turn along.
func TestSuccessorWaitsOutSuspicion(t *testing.T) {
	ps := testPeer(t, "127.0.0.1:1")
	st := paretoReplica("job-x", "127.0.0.1:9", []string{"127.0.0.1:2", ps.self})

	ps.table.Merge([]wire.GossipEntry{{Addr: "127.0.0.1:2", Incarnation: 1, State: wire.GossipSuspect}})
	if got := ps.successor(st); got != "127.0.0.1:2" {
		t.Fatalf("successor with suspect first replica = %q, want the suspect kept in line", got)
	}

	ps.table.Merge([]wire.GossipEntry{{Addr: "127.0.0.1:2", Incarnation: 1, State: wire.GossipDead}})
	if got := ps.successor(st); got != ps.self {
		t.Fatalf("successor with dead first replica = %q, want self", got)
	}
}

// adoptOrphans must never adopt a retired job, and must defer adoption
// when the dead-listed owner still answers a direct probe: a
// CPU-starved owner can be falsely declared dead while its job is
// running, and adopting would fork the job.
func TestAdoptOrphansGuards(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	ps := testPeer(t, "127.0.0.1:1")
	markDead(ps, ownerAddr)

	// A tombstone for a dead owner stays un-adopted.
	ps.replicas.retire(wire.ReplicateRequest{JobID: "job-finished", Owner: ownerAddr, Done: true})
	// A live replica whose dead-listed owner still answers is deferred.
	ps.replicas.put(paretoReplica("job-running", ownerAddr, []string{ps.self}))

	ps.adoptOrphans(t.Context())

	for _, id := range []string{"job-finished", "job-running"} {
		if _, err := ps.srv.jobs.Get(id); err == nil {
			t.Fatalf("job %s was adopted; want adoption skipped", id)
		}
	}
	if st, ok := ps.replicas.get("job-running"); !ok || st.Done {
		t.Fatalf("deferred replica entry = %+v, ok=%v; want kept live for the next round", st, ok)
	}

	// Once the owner stops answering, the same entry is adopted.
	owner.Close()
	ps.adoptOrphans(t.Context())
	if _, err := ps.srv.jobs.Get("job-running"); err != nil {
		t.Fatalf("job-running not adopted after its owner stopped answering: %v", err)
	}
	if _, ok := ps.replicas.get("job-running"); ok {
		t.Fatal("adopted job's replica entry should be dropped by the adopter")
	}
}
