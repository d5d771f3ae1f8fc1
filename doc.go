// Package repro reproduces Cho, Zhang & Li, "Informed Microarchitecture
// Design Space Exploration using Workload Dynamics" (MICRO 2007): wavelet
// neural networks that forecast the time-varying CPI, power and AVF
// behaviour of workloads across a nine-parameter superscalar design space,
// together with the full simulation substrate the paper's evaluation needs
// (cycle-level out-of-order core, Wattch-style power model, ACE-based AVF
// accounting, synthetic SPEC-2000-like workloads, and the Section 5 dynamic
// vulnerability management case study).
//
// # Module layout
//
// The module (named repro, defined by go.mod at the repository root) is
// organised in three tiers:
//
//   - Simulation substrate — internal/cpu, internal/cache, internal/bpred,
//     internal/power, internal/avf, internal/dvm, internal/workload, and
//     internal/sim, which binds them into one Run per (config, benchmark)
//     and a pooled, context-cancellable SweepContext for campaigns.
//   - Modelling — internal/wavelet, internal/rbf, internal/regtree,
//     internal/mathx, and internal/core, whose Predictor maps a
//     normalised configuration vector to a forecast dynamics trace.
//   - Exploration — internal/space (the Table 1/2 design space),
//     internal/explore (the exploration engine below),
//     internal/registry (the trained-model store behind the daemon),
//     internal/wire (the daemon's shared JSON wire format),
//     internal/api (the versioned /v1 route map, structured errors, and
//     the async job subsystem), internal/cluster (the distributed sweep
//     plane below), internal/gossip (the leaderless membership table
//     behind peer mode), and internal/experiments (the paper's tables and
//     figures), driven by cmd/dse, cmd/dsed, cmd/simtrace, cmd/wavedemo,
//     and examples/ — all speaking to the daemon through one typed
//     client, pkg/dsedclient.
//
// # Exploration engine
//
// internal/explore turns trained predictors into answers about the design
// space. Candidates are evaluated on a bounded worker pool with
// context.Context cancellation and deterministic, design-ordered results.
// explore.SweepContext materialises every candidate and extracts the
// Pareto frontier with sorted-sweep / divide-and-conquer algorithms
// (O(n log n) for the common one- and two-objective cases); for larger
// spaces, explore.SweepStream pushes candidates through streaming
// Collectors — TopK for constrained best-of selection and
// FrontierCollector for incremental frontiers — so a million-design sweep
// retains only the answer. internal/sim gained the same shape:
// sim.SweepContext runs simulations on a fixed pool and aborts the sweep
// on the first error or cancellation.
//
// Frontier sweeps screen before they predict. A predicted trace is
// Σᵢ cᵢ·bᵢ, network outputs times reconstruction basis vectors, and every
// wavelet detail basis has zero mean, so the trace mean needs only the
// networks whose basis has a non-zero mean: for the average/difference
// Haar transform, the one scaling-coefficient network of k. Each
// core.Predictor precomputes, in Train and in Load (the persisted format
// is unchanged), those networks, their basis means and a margin proven
// from its weights. Every RBF kernel lies in [0, 1], so |cᵢ| ≤ Wᵢ =
// Σⱼ|wᵢⱼ| + |biasᵢ|; with T = Σᵢ Wᵢ·max|bᵢ|, trace length n and
// u = 2⁻⁵³, the rounding of the trace, of mathx.Mean, of the basis means
// and of the estimate stays below (2k+4n+6)·u·T, and the stored margin
// is 16(k+n+1)·u·T, more than twice that (internal/core/bound.go spells
// out the terms). Bound returns est ± margin, which brackets mathx.Mean
// of the predicted trace and the exact mean of its entries — and so
// lower-bounds mathx.Max too. For the served models of perfbench's six
// warm profiles the margins are at most 9e-9, while the estimates are
// off by at most 9e-14.
// explore.SweepStream uses it when every collector is a Screener (a
// FrontierCollector, or dsed's locked wrapper of one), every model a
// bounded Predictor and every objective a mean or worst case: a design
// is skipped when a retained frontier point is at most all its lower
// bounds and below one, because that point strictly dominates the
// design's real scores. Survivors are predicted and scored on the usual
// path, so every emitted score, the frontier's order and Seen are bit for
// bit what the full sweep gives. Everything else keeps the full path:
// SweepContext (which returns every candidate and is perfbench's
// reference), top-K sweeps, exceedance objectives and the baselines
// (GlobalANN, LinearWavelet), which have no bound.
//
// # The model registry
//
// internal/registry treats the trained-model inventory as a first-class
// subsystem: a concurrency-safe store keyed by (benchmark, metric) with
// Get/LoadOrTrain semantics. A request for an untrained benchmark trains
// it on demand through an injectable Trainer, and singleflight
// deduplication collapses N concurrent requests into exactly one
// training run (all metrics of a benchmark are fitted from one
// simulation sweep). With a model directory configured, trained models
// are persisted through core.Save next to a versioned JSON manifest
// recording their provenance (train options, seed, trace length), so a
// restarted daemon warm-starts in milliseconds instead of re-simulating;
// corrupt or provenance-mismatched files are skipped and retrained on
// first use.
//
// # The dsed daemon and the /v1 job API
//
// cmd/dsed is the serving surface over the registry and the engine: it
// pre-trains (or warm-starts) the benchmarks named on the command line,
// grows its model inventory on demand under load, and answers concurrent
// JSON queries behind request-ID/logging/metrics middleware. The surface
// is the versioned /v1 API; every /v1 error is the structured model
// {code, message, retryable, request_id} and X-Request-ID is honoured
// when supplied, minted otherwise, echoed always.
//
// Synchronous queries:
//
//	go run ./cmd/dsed -addr :8090 -benchmarks gcc,mcf -metrics CPI,Power -model-dir ./models
//	curl -s localhost:8090/v1/healthz
//	curl -s localhost:8090/v1/benchmarks
//	curl -s localhost:8090/v1/metricsz
//	curl -s localhost:8090/v1/predict -d '{"benchmark":"gcc","metric":"CPI","config":{"fetch_width":4}}'
//	curl -s localhost:8090/v1/predict -d '{"benchmark":"gcc","metrics":["CPI","Power"],"configs":[{"fetch_width":2},{"fetch_width":8}]}'
//	curl -s localhost:8090/v1/warm -d '{"benchmarks":["twolf","gap"]}'
//
// Exploration is long-running by nature — predictor-driven sweeps over
// millions of design points — so it is a job, not an RPC. Submission
// answers 202 with a job ID immediately; progress streams as NDJSON,
// one cumulative snapshot per line (partial frontier / feasible top-K,
// designs evaluated, per-peer shard attribution on a fleet), ending
// with the final update:
//
//	job=$(curl -s localhost:8090/v1/pareto -d '{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}],"space":"test"}' | sed 's/.*"id":"\([^"]*\)".*/\1/')
//	curl -sN localhost:8090/v1/jobs/$job/stream      # NDJSON partial frontiers (?updates=final for just the answer)
//	curl -s  localhost:8090/v1/jobs/$job             # status + result once done
//	curl -s  -X DELETE localhost:8090/v1/jobs/$job   # cancel a running job; release a finished one
//	curl -s localhost:8090/v1/sweeps -d '{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power","kind":"worst"}],"space":"train","top_k":5,"constraints":[{"objective":1,"max":60}]}'
//
// Because every streamed update is a cumulative snapshot, a client that
// disconnects simply re-opens the stream and is current after one line —
// pkg/dsedclient's iterator does this automatically.
//
// /v1 is the only surface: a path outside it answers the structured 404
// like any unknown route.
//
// The batch /v1/predict form scores many configs under many metrics in
// one request on the worker pool; /v1/benchmarks lists what is trained
// versus trainable on demand; /v1/metricsz exposes per-endpoint request,
// status and latency counters in Prometheus text; POST /v1/warm pre-trains a benchmark list
// before the first sweep needs it. POST bodies are bounded (413 beyond
// 1 MiB) and every endpoint enforces its method.
//
// # The Go client
//
// pkg/dsedclient is the one way this repository speaks to a daemon: the
// cluster transport, all five examples, cmd/dse's remote mode, and the
// peers' gossip and replication loops are built on it. It offers typed calls
// with context cancellation, automatic retry with backoff on errors the
// daemon marks retryable, submit/poll/cancel for jobs, a streaming
// iterator that resumes across disconnects, and blocking conveniences
// (ParetoJob, SweepJob) that bundle submit → stream → final:
//
//	c := dsedclient.New("localhost:8090")
//	resp, err := c.ParetoJob(ctx, wire.ParetoRequest{...}, func(u api.Update) {
//		log.Printf("partial: %d/%d designs, %d frontier points", u.Evaluated, u.Designs, len(u.Candidates))
//	})
//
// # The cluster plane
//
// internal/cluster scales the daemon horizontally. Both reductions the
// daemon serves — Pareto frontiers and constrained top-K — are
// associative, so a sweep distributes losslessly: a coordinator
// range-partitions the design list into shards, places the benchmark on
// workers by consistent hashing (stable homes, ~1/N movement on fleet
// change), dispatches shards concurrently with per-shard retry onto the
// rest of the fleet when a worker dies mid-sweep, and folds the partial
// answers through the mergeable collectors
// (explore.FrontierCollector.Merge, explore.TopK.Merge). Two transports
// implement the worker link: an in-process Local (deterministic -race
// tests, one-binary fallback) and HTTP, which speaks the ordinary dsed
// wire format — any running dsed is already a cluster worker.
//
// A fleet is dsed peers (-peers, below). Any peer coordinates the jobs
// submitted to it with the same /v1 job API — a fleet job's stream
// publishes the merged partial frontier after every shard, so partial
// results flow peer → owning peer → client while the fleet sweeps. The
// owner's shard transport is itself a dsedclient: each shard is a /v1
// job on the peer it lands on, submitted with "scope":"local" and
// streamed, so evaluating a shard needs no extra surface. POST /v1/warm
// on a peer trains each benchmark across the fleet ahead of the first
// query (partial failures itemised in a 200). The remote CLI takes a
// single daemon or a comma-separated peer list:
//
//	go run ./cmd/dse -daemon 127.0.0.1:9401,127.0.0.1:9402 -exp pareto -benchmarks gcc -sample 2000
//
// # Fleet operations
//
// The fleet is a live membership table built by gossip, not a frozen
// list: -peers names the seed peers a node first gossips with, and the
// table grows as peers learn of each other. Each peer's gossip entry
// advertises its trained-model inventory and per-benchmark running-job
// queue depths, so the scheduler routes each benchmark's shards to peers
// already holding its models, spilling to the least-loaded other peers
// only under load (see Scheduling). With -target-shard-ms a
// peer also sizes each shard adaptively from an EWMA of the target's
// observed per-design latency. A peer's self address (-advertise, else
// -addr) is what it gossips, so it must be a host:port other peers can
// dial; dsed refuses to boot in peer mode with a hostless one.
//
// Grow the fleet by starting another peer with any live member as its
// seed:
//
//	go run ./cmd/dsed -addr 127.0.0.1:9404 -peers 127.0.0.1:9401 &
//
// Drain a peer by stopping it: after two silent gossip rounds it is
// suspect and leaves every scheduling view, after three it is dead; its
// remaining shards re-dispatch to the survivors and its running jobs
// are adopted by their replicas. Read
// membership from any peer:
//
//	curl -s 127.0.0.1:9401/v1/healthz
//
// Each /v1/healthz peer row reports the gossip state, incarnation and
// beat, advertised benchmarks and queue depths and, for members of this
// peer's scheduling view, inflight and completed shards, the per-design
// latency EWMA, and three separate fault columns: "failures" (transport
// faults and timeouts — a sick peer), "rejections" (the peer's
// deterministic 4xx verdicts on bad requests — not the peer's fault),
// and "busy" (retryable 429 verdicts — a healthy peer at capacity whose
// shard spilled elsewhere), so an operator can tell a dead machine from
// a bad client from a saturated fleet. The top level adds the hedge
// totals and the retry count.
//
// # Control plane
//
// There is no distinguished coordinator process. Every peer is a full
// daemon that can also coordinate, membership is leaderless, and a
// running job survives the death of the node coordinating it:
//
//	dsed -addr 127.0.0.1:9401 -peers 127.0.0.1:9402,127.0.0.1:9403 -replicate 2 ... &
//	dsed -addr 127.0.0.1:9402 -peers 127.0.0.1:9401,127.0.0.1:9403 -replicate 2 ... &
//	dsed -addr 127.0.0.1:9403 -peers 127.0.0.1:9401,127.0.0.1:9402 -replicate 2 ... &
//
// Membership is anti-entropy gossip (internal/gossip): each peer keeps a
// versioned member table — per-member incarnation number, beat counter,
// alive/suspect/dead state, and the capacity/model-inventory/queue-depth
// payload the scheduler consumes — and each -heartbeat interval
// exchanges full-table digests with one random peer over POST
// /v1/gossip. Merge order is (incarnation, state badness, beat), so a
// false suspicion loses to the accused peer's next self-refutation
// (which bumps its own incarnation), and a death verdict sticks. A peer
// unseen for two intervals turns suspect, for three turns dead. After
// every round the peer hands its table's alive set, whole, to its
// coordinator (cluster.Coordinator.SetMembers), so the scheduler and the
// gossip layer cannot disagree about who is dispatchable: a suspect or
// dead peer leaves the scheduling fleet on the round gossip stops
// listing it alive, with no second lease to wait out. There is no
// leader, no quorum, no election — any subset of live peers keeps
// accepting and finishing work.
//
// Any peer accepts POST /v1/sweeps (and /v1/pareto, /v1/warm) and
// coordinates that job over the fleet; shard dispatches are stamped
// scope=local so a shard is evaluated where it lands instead of
// re-distributed forever. While a fleet-scope job runs, its owner
// replicates a compact recovery state to -replicate peers after each
// merged shard: the job spec, the latest merged cumulative snapshot
// (with original design indices, so top-K tie-breaking survives the
// handoff), and the shard ledger — exactly which design ranges have
// merged. Because collectors are associative and snapshots cumulative,
// that state is the whole job.
//
// When gossip declares an owner dead, the first live replica in the
// job's (rendezvous-hashed) replica list adopts: it restarts the job
// under the same job ID with the update sequence continued past the
// owner's last replicated seq, re-dispatches only the ledger's
// complement, and merges on top of the snapshot — every design still
// evaluates exactly once across the handoff, and the final answer is
// byte-identical to the uninterrupted run (property-tested at every
// shard boundary in internal/cluster). Non-owners answer /v1/jobs/{id}
// for replicated jobs with a 307 to the owner (or the adopter, once the
// owner is dead), so a client can ask any peer about any job. The
// adopter splices the owner's replicated spans into its own trace tree
// under an "adopt" span, so GET /v1/jobs/{id}/trace still returns one
// connected tree spanning both owners' lifetimes.
//
// pkg/dsedclient closes the loop: New accepts a comma-separated
// endpoint list, rotates to the next endpoint on dial failure, replays
// Stream reconnects with ?from_seq= (the server answers with the delta
// the reader missed, or the latest cumulative snapshot if that fell off
// the 64-update history ring), and tolerates the brief 404/503 window
// between an owner's death and the adoption. A streaming client
// watching a sweep when its owning peer dies sees at most a pause.
// Observability: dsed_gossip_rounds_total{result},
// dsed_gossip_members{state}, dsed_gossip_members_divergence (how far
// this peer's view lags the freshest beat it has seen),
// dsed_gossip_refutations_total, and dsed_jobs_adopted_total{reason}.
//
// # Scheduling
//
// Shard placement is one rule, with no option to pick another. It reads
// only what the coordinating peer observes: per-worker inflight shards
// and advertised capacity, and the gossiped trained-model inventory and
// per-benchmark queue depths. Over the live workers not yet tried for a
// shard, it picks the one that ranks first by:
//
//  1. a free slot (inflight < capacity);
//  2. the benchmark's trained models advertised;
//  3. the lowest load: inflight plus the advertised queue depths across
//     all benchmarks;
//  4. the name, alphabetically.
//
// So a warm model holder takes every shard while it has a free slot and
// a benchmark never trains on demand mid-sweep while a holder is free (a
// fleet warm places it on every peer). The sweep spills to the rest of
// the fleet only under load, and a saturated fleet still gets a pick
// and keeps progressing. Within each class, load decides: a straggler
// whose shards pile up in flight, or a peer busy with jobs other peers
// coordinate, repels new shards.
//
// Against stragglers the coordinating peer speculates (hedged dispatch): when
// a shard's elapsed time exceeds -hedge-factor times its expected
// duration — the worker's per-design EWMA, or the fleet median before
// the worker has one, times the shard size — the shard is dispatched a
// second time to the scheduler's next-ranked worker and the first answer
// wins. -hedge-factor 0 is the disable switch; the trigger is floored at
// 25ms, and a cold fleet with no latency observations never hedges (its
// first shards may be training models on demand). Outcomes are counted
// in dsed_cluster_shard_hedges_total{result=issued|won|wasted} and the
// /v1/healthz hedges row, and every speculative attempt carries a
// hedge=true dispatch span in the job's trace tree.
//
// Hedging is safe because exactly one partial merges per shard. The
// collectors are associative but deliberately not duplicate-idempotent
// (two copies of one frontier point both survive a strict dominance
// check), so the coordinating peer deduplicates at the source: the losing
// attempt's answer feeds the worker's latency EWMA and the trace tree
// but never the merge — and since a shard's answer is a deterministic
// function of the shard, whichever attempt wins merges the identical
// result. tools/schedsim races hedging off against hedging on over a
// simulated heterogeneous fleet. Over 10 runs on a 2-CPU Linux VM, the
// hedged median makespan is 61 ms on 2 fast workers plus 2 stragglers
// (-fast 2 -slow 2) and 65.5 ms on 3 fast plus 1 straggler with a
// mid-sweep leave and join (-fast 3 -slow 1 -churn). Unhedged, both take
// about 515 ms, because each waits on a straggler's shard. Both legs
// merge the byte-identical frontier.
//
// # Observability
//
// internal/obs is the fleet's stdlib-only observability layer: a metrics
// registry (atomic counters, gauges, fixed-bucket histograms) whose
// record path is allocation-free — handles are pre-registered once,
// Inc/Set/Observe touch only atomics, so instrumenting the sweep hot
// path keeps its zero-allocations-per-design invariant — plus trace
// spans threaded over the existing request-ID plumbing.
//
// Metric names follow Prometheus conventions under one dsed_ prefix:
// dsed_<subsystem>_<what>[_total] with snake_case label keys (worker,
// benchmark, endpoint, code, state, event, result). Durations are
// histograms in milliseconds (suffix _ms) over obs.LatencyMSBuckets,
// sixteen buckets from 0.1ms to 10s; size distributions (merge
// candidates, chunk designs) use the power-of-two obs.SizeBuckets. The
// series cover every seam of the fleet: per-worker shard dispatch
// latency and the three-column fault taxonomy
// (dsed_cluster_worker_failures_total / _rejections_total /
// _busy_total — the same numbers /v1/healthz reports, from the same
// counters), shard retries and membership churn
// (dsed_cluster_membership_events_total{event=join|leave}),
// registry training/load/warm timings and cache hit ratios
// (dsed_registry_train_ms{benchmark}, dsed_registry_cache_total{result}),
// job lifecycle and stream health (dsed_jobs_running,
// dsed_jobs_finished_total{state}, dsed_jobs_stream_dropped_total),
// sweep chunk timings (dsed_explore_chunk_ms), and per-endpoint HTTP
// accounting (dsed_http_requests_total{endpoint,code}, job paths folded
// onto their /v1/jobs/{id} patterns and unknown paths onto "other").
// Scrape any daemon in Prometheus text format:
//
//	curl -s localhost:8090/v1/metricsz
//
// Traces answer "where did this job spend its time" across machines.
// A fleet job opens a root span on its owning peer; each shard attempt
// opens a dispatch child whose context rides the HTTP hop as a
// W3C-shaped traceparent header (plus the request ID); the evaluating
// peer parents its own job span under it, brackets the
// train/encode/predict/merge phases with child spans, and ships its
// spans back inside the final job update. The owner splices them into
// its ring-buffered trace
// store (the most recent 256 traces), so one GET returns the assembled
// cross-node tree once the job is done:
//
//	curl -s localhost:8090/v1/jobs/$job/trace
//
// The response is {job_id, trace_id, spans, tree}: nested spans with
// name, node (which daemon recorded it), start, duration and
// annotations (benchmark, job_id, request_id, worker, verdict).
// `dse -daemon` prints the same tree after its final answer as
// "trace:"-prefixed lines. GET /v1/jobs lists the job table (filter
// with ?state=, ?benchmark=, ?kind=, page with ?limit=).
//
// For deeper digging the daemon takes -debug-addr, a second
// listener (never exposed by default) serving net/http/pprof:
//
//	go run ./cmd/dsed -addr :8090 -debug-addr localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//	curl -s 'localhost:6060/debug/pprof/goroutine?debug=1'
//
// # Performance
//
// The sweep hot path — millions of Predict calls per exploration — is
// batch-oriented and allocation-free in steady state. Every layer
// contributes:
//
//   - internal/core: wavelet reconstruction is linear, so each Predictor
//     precomputes one reconstruction basis vector per selected
//     coefficient (with its nonzero support trimmed); Predict becomes k
//     scaled vector additions instead of a full inverse transform.
//     PredictInto(cfg, dst) and PredictBatch(cfgs, dst) reuse
//     caller-provided output buffers, and the VecPredictor refinement
//     (PredictVecInto) accepts a pre-encoded feature vector so the sweep
//     engine encodes each design once and shares the vector across
//     models (the plain feature encoding is a strict prefix of the DVM
//     encoding).
//   - internal/rbf: Network.PredictBatch with reused scratch, per-level
//     reciprocal-radius tables so the distance loop is multiply-add, a
//     factored kernel that shares per-(dimension, level) factors across
//     centers, and a table-driven ExpFast (relative error under 1e-10)
//     for the Gaussian.
//   - internal/explore: evalChunks workers hold per-worker scratch (one
//     trace buffer per model, one flat score matrix per chunk) and emit
//     scores only — zero heap allocations per design in steady state,
//     property-tested bit-identical to the naive path. ParetoFrontier
//     prefilters against a strong pivot and sorts two-objective inputs
//     by flat value keys.
//   - Frontier screening (see Exploration engine) predicts in full only
//     the designs that could reach the frontier. Each worker checks
//     designs against its own copy of the frontier scores, refreshed
//     once per chunk under the collectors' lock; a stale copy only
//     screens less. On a 2-vCPU Intel Xeon, BenchmarkParetoScreen (gcc
//     CPI mean × Power mean, served k = 16 models, 245,760 designs, one
//     worker) takes 1.98–2.14 s on the full path and 0.17–0.19 s
//     screened, with 0.96% of designs predicted in full; perfbench
//     warm-pareto went from 0.89 to 6.9 jobs/s (medians of 10 pairs).
//     A job's phase:predict span carries designs_rescored, the count
//     predicted in full.
//   - cmd/dsed: JSON and NDJSON responses encode through pooled buffers
//     (api.EncodeJSON) — one marshal, one Write per response or stream
//     line, no per-update allocation at shard rate.
//
// The trajectory is recorded, not remembered. BENCH_PR7.json at the
// repository root is the committed baseline for the hot-path benchmarks
// (BenchmarkExploreSweep, BenchmarkPredictBatch, BenchmarkRBFPredict).
// Record a new point (and commit it when a PR moves the needle) with:
//
//	go test -run='^$' -bench='ExploreSweep|PredictBatch|RBFPredict' \
//	  -benchtime=10x -count=3 . | go run ./tools/benchjson > BENCH_PR7.json
//
// CI's perf gate re-runs those benchmarks on every push and compares
// against the committed baseline via `benchjson -compare -tolerance 25`:
// ns/op may grow at most 25%, rate metrics (designs/s) may drop at most
// 25%, judged on the best of the repeated runs so scheduler noise cannot
// fail the gate, and a gated benchmark that disappears from the run is
// itself a regression. See tools/benchjson for the format and the
// comparison rules.
//
// # Enforced invariants
//
// The conventions above — context-first dispatch, injected clocks,
// structured /v1 errors — stop being conventions the moment a reviewer
// misses one. cmd/dsedlint machine-checks them: a go/analysis-style
// suite (internal/lint) that CI runs over every package and that any
// developer can run through the standard vet harness:
//
//	go build -o /tmp/dsedlint ./cmd/dsedlint
//	go vet -vettool=/tmp/dsedlint ./...
//
// or standalone (same diagnostics, no build cache required):
//
//	go run ./cmd/dsedlint ./...
//
// The suite enforces five invariants, each rooted in a past or plausible
// fleet failure mode:
//
//   - ctxflow: no context.Background()/context.TODO() outside package
//     main and tests — a detached context in library code cannot be
//     cancelled, so a dead client would keep a sweep burning worker
//     capacity. Functions that dispatch work (go statements, errgroup
//     .Go) must accept a context.Context so cancellation has a path in.
//   - lockhold: no blocking operation (channel send/receive without a
//     selectable default, WaitGroup.Wait, time.Sleep, network or exec
//     calls) while a sync.Mutex/RWMutex is held, and every Lock must
//     pair with an Unlock on all return paths. Holding the coordinator
//     mutex across a worker RPC is exactly how a slow worker stalls the
//     whole membership plane.
//   - httperr: /v1 handlers must report errors through the structured
//     envelope writer, never http.Error or ad-hoc {"error": ...}
//     literals — clients parse one shape. Handlers that decode request
//     bodies must bound them with http.MaxBytesReader first, so a
//     malformed client cannot balloon coordinator memory.
//   - jsonenc: json Encode/Marshal error results must not be discarded;
//     a dropped encode error turns a broken response into a silent
//     truncation the client misreads as success.
//   - clockinject: packages that inject a clock seam (a now() method or
//     clock-typed field) must use it everywhere — a raw time.Now or
//     time.Sleep beside a seam silently escapes the fake clock in tests
//     and re-introduces flakes the seam existed to kill.
//
// False positives are suppressed inline, never silently: a
// //dsedlint:ignore <analyzer> <reason> directive on (or immediately
// above) the offending line disables the named analyzers for that line,
// and the reason is mandatory — a directive without one is itself a
// diagnostic. The suite's own fixtures live under internal/lint/testdata
// and every analyzer is proven by failing cases there; TestRepoIsClean
// (internal/lint/checker) re-runs the whole suite over the module inside
// the ordinary test run, so `go test ./...` and CI's vet gate cannot
// disagree.
//
// See README.md for the tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-versus-measured results.
// The top-level benchmark harness (bench_test.go) regenerates every table
// and figure and tracks the engine's sweep and frontier throughput
// (BenchmarkExploreSweep, BenchmarkParetoFrontier):
// go test -bench=. -benchmem .
package repro
