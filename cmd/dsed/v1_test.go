package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

// The /v1 acceptance suite: the async job API end-to-end through the
// typed client, the structured error model, and request IDs.

func testClient(base string) *dsedclient.Client {
	return dsedclient.New(base, dsedclient.WithRetries(2), dsedclient.WithBackoff(5*time.Millisecond))
}

// TestV1JobLifecycle drives one job through submit → poll → stream →
// result and pins the streamed final answer to the polled result.
func TestV1JobLifecycle(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	c := testClient(ts.URL)
	ctx := context.Background()

	st, err := c.SubmitPareto(ctx, wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
		SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Kind != api.JobPareto {
		t.Fatalf("submission echo incomplete: %+v", st)
	}

	// Stream to completion. A local 300-design sweep often settles before
	// the stream opens — a late subscriber must still be served the final
	// snapshot (the same semantics a reconnecting client relies on).
	stream := c.Stream(ctx, st.ID)
	defer stream.Close()
	var final *api.Update
	for {
		u, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if u.Final {
			final = u
		}
	}
	if final == nil {
		t.Fatal("stream ended without a final update")
	}
	if final.State != api.StateDone || final.Evaluated != 300 || len(final.Candidates) == 0 {
		t.Fatalf("final update incomplete: %+v", final)
	}

	// Poll: the settled job serves its status and result.
	status, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != api.StateDone || status.Evaluated != 300 || status.Result == nil {
		t.Fatalf("job status incomplete after completion: %+v", status)
	}

	// The stream-assembled answer equals the polled result payload.
	raw, err := json.Marshal(status.Result)
	if err != nil {
		t.Fatal(err)
	}
	var polled wire.ParetoResponse
	if err := json.Unmarshal(raw, &polled); err != nil {
		t.Fatal(err)
	}
	if polled.Evaluated != 300 {
		t.Fatalf("polled result evaluated %d designs, want 300", polled.Evaluated)
	}
	sameFrontier(t, final.Candidates, polled.Frontier)
}

// TestV1StreamedFrontierMatchesSingleProcess is the acceptance
// criterion: the frontier assembled from /v1/jobs/{id}/stream partials
// on a peer fleet equals the single-process answer — including with a
// peer killed mid-job.
func TestV1StreamedFrontierMatchesSingleProcess(t *testing.T) {
	cases := []struct {
		name      string
		budget    int64
		shardSize int
	}{
		{"healthy fleet", 1 << 30, 32},
		{"worker killed mid-job", 2, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			owner, _ := peerFleet(t, tc.shardSize, tc.budget)
			var single wire.ParetoResponse
			if s := jobResult(t, singleTS(t), "/v1/pareto", paretoBody(), &single); s != http.StatusOK {
				t.Fatalf("single-process pareto status %d", s)
			}

			c := testClient(owner.URL)
			ctx := context.Background()
			partials := 0
			var lastPartialEvaluated int
			resp, err := c.ParetoJob(ctx, wire.ParetoRequest{
				Benchmark:  "gcc",
				Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
				SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 300},
			}, func(u api.Update) {
				// The opening snapshot announces the job's shape before any
				// shard merged; every later partial is one merged shard.
				if u.Final || u.Shards == 0 {
					return
				}
				partials++
				lastPartialEvaluated = u.Evaluated
				if u.Worker == "" || u.Delta == 0 {
					t.Errorf("partial update lacks worker attribution: %+v", u)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			// Partial frontiers genuinely arrived before the job finished:
			// more than one update, and the last partial still mid-sweep.
			if partials < 2 {
				t.Errorf("saw %d partial updates, want at least 2 (shard-granularity streaming)", partials)
			}
			if lastPartialEvaluated >= resp.Evaluated {
				// The last pre-final snapshot covers the full design list
				// only when the final merge itself produced it; every
				// earlier one must be a strict partial.
				t.Logf("note: last partial covered the whole sweep (%d designs)", lastPartialEvaluated)
			}
			if resp.Evaluated != single.Evaluated {
				t.Fatalf("job evaluated %d designs, single process %d", resp.Evaluated, single.Evaluated)
			}
			sameFrontier(t, resp.Frontier, single.Frontier)
		})
	}
}

// TestV1JobCancel holds a fleet job in flight on a gated peer, cancels
// it over the API, and expects the stream to settle "canceled".
func TestV1JobCancel(t *testing.T) {
	gate := &gatedHandler{release: make(chan struct{})}
	defer close(gate.release)
	owner, ownerTS := startPeer(t, testServer(t).store, nil, testPeerOpts(64), func(h http.Handler) http.Handler {
		gate.next = h
		return gate
	})
	join(t, owner)

	c := testClient(ownerTS.URL)
	ctx := context.Background()
	st, err := c.SubmitPareto(ctx, wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
		SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	stream := c.Stream(ctx, st.ID)
	defer stream.Close()
	for {
		u, err := stream.Next()
		if err != nil {
			t.Fatalf("stream of a cancelled job failed: %v", err)
		}
		if u.Final {
			if u.State != api.StateCanceled {
				t.Fatalf("cancelled job settled %q, want canceled", u.State)
			}
			if u.Error == nil || !u.Error.Retryable {
				t.Errorf("cancelled job's error body should be retryable: %+v", u.Error)
			}
			break
		}
	}
	// DELETE on the settled job releases it: the re-cancel succeeds and
	// the job is gone from the table afterwards.
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("re-cancel errored: %v", err)
	}
	if _, err := c.Job(ctx, st.ID); !isAPIStatus(err, http.StatusNotFound) {
		t.Errorf("released job still queryable: %v", err)
	}
	if _, err := c.Job(ctx, "no-such-job"); !isAPIStatus(err, http.StatusNotFound) {
		t.Errorf("unknown job lookup = %v, want 404 APIError", err)
	}
}

func isAPIStatus(err error, status int) bool {
	var ae *dsedclient.APIError
	return errors.As(err, &ae) && ae.Status == status
}

// TestV1ErrorModel pins the structured error contract: stable codes,
// request-ID echo (honouring X-Request-ID), retryable flags, and 406 on
// an unacceptable Accept.
func TestV1ErrorModel(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()

	// A malformed submit with a client-supplied request ID.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(`{"benchmark":"gcc"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.RequestIDHeader, "conformance-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(api.RequestIDHeader); got != "conformance-42" {
		t.Errorf("request ID not honoured: header %q", got)
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != api.CodeBadRequest || env.Error.Retryable || env.Error.RequestID != "conformance-42" {
		t.Errorf("structured error wrong: %+v", env.Error)
	}

	// Unknown routes answer the structured model too, including every
	// path outside /v1.
	for _, path := range []string{"/v1/nope", "/predict", "/healthz"} {
		r2, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		env = api.ErrorEnvelope{}
		err = json.NewDecoder(r2.Body).Decode(&env)
		r2.Body.Close()
		if err != nil || r2.StatusCode != http.StatusNotFound || env.Error.Code != api.CodeNotFound {
			t.Errorf("unknown route %s: status %d, decode err %v, code %q (want 404 %s)", path, r2.StatusCode, err, env.Error.Code, api.CodeNotFound)
		}
	}

	// Content negotiation: refusing JSON is 406.
	r3, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	r3.Header.Set("Accept", "text/html")
	resp3, err := http.DefaultClient.Do(r3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotAcceptable {
		t.Errorf("Accept: text/html on /v1 status %d, want 406", resp3.StatusCode)
	}

	// A failed job carries the structured error with its HTTP status
	// (unknown benchmark → 404 not_found).
	c := testClient(ts.URL)
	_, err = c.ParetoJob(context.Background(), wire.ParetoRequest{
		Benchmark:  "doom",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}},
		SpaceSpec:  wire.SpaceSpec{Designs: []wire.ConfigSpec{{}}},
	}, nil)
	if !isAPIStatus(err, http.StatusNotFound) {
		t.Errorf("unknown-benchmark job = %v, want 404 APIError", err)
	}
}

// TestWorkerQueueDepths: a running job shows up in the worker's
// advertised per-benchmark queue depths and drains with it.
func TestWorkerQueueDepths(t *testing.T) {
	srv := testServer(t)
	if depths := srv.QueueDepths(); len(depths) != 0 {
		t.Fatalf("idle worker advertises depths %v", depths)
	}
	job, err := srv.jobs.Start(api.JobPareto, "gcc", 10, func(ctx context.Context, pub api.Publisher) (any, api.Update, error) {
		<-ctx.Done()
		return nil, api.Update{}, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if depths := srv.QueueDepths(); depths["gcc"] != 1 {
		t.Errorf("running job not reflected in queue depths: %v", depths)
	}
	if _, err := srv.jobs.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if depths := srv.QueueDepths(); len(depths) != 0 {
		t.Errorf("finished job still counted in queue depths: %v", depths)
	}
}
