package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/mathx"
	"repro/internal/space"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/pkg/dsedclient"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlCold = "cold-start"
	wlWarm = "warm-pareto"
	wlMix  = "interactive-mix"
)

var workloadNames = []string{wlCold, wlWarm, wlMix}

// warmProfiles are the benchmarks of the warm model directory the three
// warm workloads serve from.
var warmProfiles = []string{"gcc", "mcf", "bzip2", "twolf", "vpr", "parser"}

const (
	// setupLaunches is how many times a run boots its daemons; setup_s
	// is the median and the last boot serves the workload.
	setupLaunches = 5
	// mixPoolRounds × len(warmProfiles) distinct jobs make up the
	// interactive-mix pool; each round names every profile once.
	mixPoolRounds = 4
)

// op is one client operation: a job (submit, stream to the final line)
// or a batch prediction.
type op struct {
	spec  *jobSpec
	preq  *wire.PredictRequest
	presp *wire.BatchPredictResponse
	final *api.Update
	err   error
	start time.Time
	end   time.Time
	// firstUpdate runs from the 202 response to the first stream line.
	firstUpdate time.Duration
	// duplicate marks the second of two identical submits sent at the
	// same moment: it is checked and counted, but its latency (that of
	// its twin) stays out of the latency samples.
	duplicate bool
}

func (o *op) latency() time.Duration { return o.end.Sub(o.start) }

// doJob submits spec and streams the job to its final line, then
// releases the settled job.
func (r *runner) doJob(ctx context.Context, c *dsedclient.Client, spec jobSpec) *op {
	o := &op{spec: &spec}
	defer r.record(o)
	root := r.tr.begin(nil, "client", "job")
	defer root.end()
	o.start = time.Now()
	sub := r.tr.begin(&root, "api", "submit")
	var st *api.JobStatus
	if spec.Pareto != nil {
		st, o.err = c.SubmitPareto(ctx, *spec.Pareto)
	} else {
		st, o.err = c.SubmitSweep(ctx, *spec.Sweep)
	}
	sub.end()
	if o.err != nil {
		o.end = time.Now()
		return o
	}
	accepted := time.Now()
	stream := r.tr.begin(&root, "api", "stream")
	s := c.Stream(ctx, st.ID)
	for {
		u, err := s.Next()
		if err != nil {
			o.err = err
			break
		}
		if o.firstUpdate == 0 {
			o.firstUpdate = time.Since(accepted)
		}
		if u.Final {
			o.final = u
			break
		}
	}
	s.Close()
	o.end = time.Now()
	stream.end()
	if o.final != nil {
		rel := r.tr.begin(&root, "api", "release")
		_, _ = c.Cancel(ctx, st.ID)
		rel.end()
	}
	return o
}

// doPredict sends one batch prediction.
func (r *runner) doPredict(ctx context.Context, c *dsedclient.Client, req wire.PredictRequest) *op {
	o := &op{preq: &req}
	defer r.record(o)
	root := r.tr.begin(nil, "client", "predict")
	defer root.end()
	o.start = time.Now()
	call := r.tr.begin(&root, "api", "predict")
	o.presp, o.err = c.PredictBatch(ctx, req)
	call.end()
	o.end = time.Now()
	return o
}

func (r *runner) record(o *op) {
	r.mu.Lock()
	r.ops = append(r.ops, o)
	r.mu.Unlock()
}

// client returns a dsedclient bound to addr over the harness's pooled
// HTTP client.
func (r *runner) client(addr string) *dsedclient.Client {
	return dsedclient.New(addr, dsedclient.WithHTTPClient(r.hc))
}

// launch boots a daemon with flags args and waits until it answers
// /v1/healthz with at least models models. It returns the boot time.
func (r *runner) launch(ctx context.Context, models int, tag string, args []string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := startDaemon(ctx, r.opts.dsed, addr, filepath.Join(r.work, tag+".log"), args...)
	if err != nil {
		return nil, 0, err
	}
	readyCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := d.waitReady(readyCtx, r.hc, models); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

func stopAll(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}

// setUp boots the workload's daemon setupLaunches times, recording each
// boot time, and keeps the last boot serving. prepare runs before each
// boot, untimed, and returns that boot's flags.
func (r *runner) setUp(ctx context.Context, models int, prepare func(launch int) ([]string, error)) error {
	for l := 0; l < setupLaunches; l++ {
		args, err := prepare(l)
		if err != nil {
			return err
		}
		d, elapsed, err := r.launch(ctx, models, fmt.Sprintf("boot%d", l), args)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, elapsed)
		if l < setupLaunches-1 {
			d.stop()
			continue
		}
		r.daemons = []*daemon{d}
	}
	return nil
}

// warmArgs copies the warm model directory for boot l and returns the
// flags that warm-start a daemon from the copy.
func (r *runner) warmArgs(l int) ([]string, error) {
	dir := filepath.Join(r.work, fmt.Sprintf("models-boot%d", l))
	return []string{"-benchmarks", "", "-model-dir", dir}, copyDir(r.modelDir, dir)
}

// coldStart: an empty daemon trains every profile on demand, one
// frontier request per profile in a seeded order, with one profile
// submitted twice at the same moment. Passes repeat on a fresh empty
// daemon until the run's seconds are spent, finishing the pass under
// way; booting a pass's daemon is left out of the measured time.
func (r *runner) coldStart(ctx context.Context) error {
	rng := mathx.NewRNG(r.opts.seed)
	names := workload.Names()
	for _, i := range rng.Perm(len(names)) {
		r.profiles = append(r.profiles, names[i])
	}
	dup := r.profiles[rng.Intn(len(r.profiles))]
	coldArgs := func(dir string) []string { return []string{"-benchmarks", "", "-model-dir", dir} }
	err := r.setUp(ctx, 0, func(l int) ([]string, error) {
		r.modelDir = filepath.Join(r.work, fmt.Sprintf("cold-models-%d", l))
		return coldArgs(r.modelDir), nil
	})
	if err != nil {
		return err
	}
	r.passes = 0
	r.phaseStart = time.Now()
	deadline := r.phaseStart.Add(r.opts.duration)
	for d := r.daemons[0]; ctx.Err() == nil; {
		r.passes++
		r.coldPass(ctx, r.client(d.addr), dup)
		if !time.Now().Before(deadline) {
			break
		}
		boot := time.Now()
		next, _, err := r.launch(ctx, 0, fmt.Sprintf("pass%d", r.passes), coldArgs(filepath.Join(r.work, fmt.Sprintf("pass-models-%d", r.passes))))
		if err != nil {
			return err
		}
		r.idle += time.Since(boot)
		r.daemons = append(r.daemons, next)
		d = next
	}
	r.phaseEnd = time.Now()
	return nil
}

// coldPass requests every profile's frontier once, submitting dup twice.
func (r *runner) coldPass(ctx context.Context, c *dsedclient.Client, dup string) {
	for _, b := range r.profiles {
		if ctx.Err() != nil {
			return
		}
		spec := jobSpec{Pareto: ptr(paretoRequest(b, "test")), Golden: "cold"}
		if b != dup {
			r.doJob(ctx, c, spec)
			continue
		}
		var wg sync.WaitGroup
		ops := make([]*op, 2)
		for i := range ops {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ops[i] = r.doJob(ctx, c, spec)
			}(i)
		}
		wg.Wait()
		ops[1].duplicate = true
	}
}

// warmPareto: one closed-loop client alternating full-space gcc and mcf
// frontiers on a warm daemon.
func (r *runner) warmPareto(ctx context.Context) error {
	r.profiles = []string{"gcc", "mcf"}
	if r.opts.seed%2 == 1 {
		r.profiles = []string{"mcf", "gcc"}
	}
	err := r.setUp(ctx, len(warmProfiles)*len(servedMetrics), r.warmArgs)
	if err != nil {
		return err
	}
	c := r.client(r.daemons[0].addr)
	r.phaseStart = time.Now()
	deadline := r.phaseStart.Add(r.opts.duration)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		b := r.profiles[i%len(r.profiles)]
		r.doJob(ctx, c, jobSpec{Pareto: ptr(paretoRequest(b, "train")), Golden: "warm"})
	}
	r.phaseEnd = time.Now()
	return nil
}

// mixPool generates the interactive-mix job pool: mixPoolRounds rounds,
// each naming every warm profile once in a seeded order, with a fixed
// composition of job shapes per round so every seed carries the same
// kinds of work.
func mixPool(rng *mathx.RNG) []jobSpec {
	// A shape is a job kind and its design count: 0 is the 5,832-design
	// test space, otherwise an LHS sample of the train space.
	shapes := []struct {
		pareto bool
		sample int
	}{{true, 0}, {true, 0}, {true, 250}, {true, 500}, {false, 0}, {false, 250}}
	topKs := []int{5, 10, 20}
	var pool []jobSpec
	for round := 0; round < mixPoolRounds; round++ {
		order := rng.Perm(len(warmProfiles))
		kinds := rng.Perm(len(shapes))
		for i, pi := range order {
			b := warmProfiles[pi]
			shape := shapes[kinds[i]]
			sp := wire.SpaceSpec{Space: "test"}
			if shape.sample > 0 {
				sp = wire.SpaceSpec{Space: "train", Sample: shape.sample, Seed: uint64(rng.Intn(1000) + 1)}
			}
			if shape.pareto {
				req := paretoRequest(b, "")
				req.SpaceSpec = sp
				pool = append(pool, jobSpec{Pareto: &req})
				continue
			}
			pool = append(pool, jobSpec{Sweep: &wire.SweepRequest{
				Benchmark:  b,
				Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}, {Metric: "AVF", Kind: "worst"}},
				SpaceSpec:  sp,
				TopK:       topKs[rng.Intn(len(topKs))],
				Objective:  rng.Intn(3),
			}})
		}
	}
	return pool
}

// randomPredict draws a batch of one to four test-space designs under a
// non-empty subset of the served metrics, for a random warm profile.
func randomPredict(rng *mathx.RNG) wire.PredictRequest {
	levels := space.TestLevels()
	req := wire.PredictRequest{Benchmark: warmProfiles[rng.Intn(len(warmProfiles))]}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		var idx [space.NumParams]int
		for p := range idx {
			idx[p] = rng.Intn(len(levels[p]))
		}
		req.Configs = append(req.Configs, wire.SpecFromConfig(levels.Design(space.Baseline(), idx)))
	}
	mask := 1 + rng.Intn(1<<len(servedMetrics)-1)
	for i, m := range servedMetrics {
		if mask&(1<<i) != 0 {
			req.Metrics = append(req.Metrics, m)
		}
	}
	return req
}

// interactiveMix: two closed-loop clients on a warm daemon, each sending
// blocks of four predictions and four jobs from the pool in a seeded
// order.
func (r *runner) interactiveMix(ctx context.Context) error {
	r.profiles = warmProfiles
	pool := mixPool(mathx.NewRNG(r.opts.seed))
	err := r.setUp(ctx, len(warmProfiles)*len(servedMetrics), r.warmArgs)
	if err != nil {
		return err
	}
	c := r.client(r.daemons[0].addr)
	r.phaseStart = time.Now()
	deadline := r.phaseStart.Add(r.opts.duration)
	var wg sync.WaitGroup
	for ci := 0; ci < 2; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := mathx.NewRNG(r.opts.seed*7919 + uint64(ci) + 1)
			next := ci * len(pool) / 2
			for time.Now().Before(deadline) && ctx.Err() == nil {
				for _, k := range rng.Perm(8) {
					if !time.Now().Before(deadline) {
						return
					}
					if k < 4 {
						r.doPredict(ctx, c, randomPredict(rng))
						continue
					}
					r.doJob(ctx, c, pool[next%len(pool)])
					next++
				}
			}
		}(ci)
	}
	wg.Wait()
	r.phaseEnd = time.Now()
	return nil
}

func ptr[T any](v T) *T { return &v }

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
