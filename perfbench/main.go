// Command perfbench is the repository's benchmark. It builds nothing
// itself (run.sh builds it and cmd/dsed from the checkout), boots dsed
// with the daemon's default model configuration, drives it over loopback
// HTTP through pkg/dsedclient, checks every answer against in-process
// references and recorded digests, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload warm-pareto --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run records harness-side spans around every call into
// the program and reports the per-layer metrics instead (see layers.go).
// Workloads: cold-start, warm-pareto, interactive-mix.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	dsed     string
	state    string
}

// runner carries one benchmark run.
type runner struct {
	opts   options
	golden *golden
	hc     *http.Client
	tr     *tracer
	work   string

	mu  sync.Mutex
	ops []*op

	setups     []time.Duration
	daemons    []*daemon
	phaseStart time.Time
	phaseEnd   time.Time
	// idle is time inside the phase spent booting daemons between
	// cold passes; rates leave it out.
	idle time.Duration
	// passes counts how many times the workload requested each of its
	// profiles.
	passes int
	// profiles are the benchmarks the workload requests.
	profiles []string
	// modelDir is the directory the checker loads reference models from.
	modelDir string
	// end-of-phase observations of the serving daemons.
	peakRSS   float64
	trainings int
	// tieOrderDiffs counts frontiers whose tie order differed from the
	// reference (see canonicalFrontier).
	tieOrderDiffs int
	// problems are run-level check failures not tied to one operation.
	problems []string
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		o       options
		seed    = flag.Uint64("seed", 1, "workload seed: profile order, mix order and sampled subsets derive from it")
		secs    = flag.Int("seconds", 15, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
		record  = flag.String("record", "", "recompute the recorded digests and write them to this file, then exit")
		selfDir = flag.String("state", ".bench_build", "directory for model caches, daemon logs and traces")
	)
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.StringVar(&o.dsed, "dsed", "", "dsed binary built from the commit under test")
	flag.Parse()
	o.seed, o.duration, o.trace, o.state = *seed, time.Duration(*secs)*time.Second, *trace == 1, *selfDir

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *record != "" {
		if err := recordGolden(ctx, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if o.dsed == "" || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -dsed, -seconds >= 1 and -trace 0|1")
		return 2
	}
	res, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runWorkload(ctx context.Context, o options) (*result, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.state, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.state, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r := &runner{
		opts:   o,
		golden: g,
		work:   work,
		passes: 1,
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	defer r.hc.CloseIdleConnections()
	if o.trace {
		r.tr = newTracer()
	}
	if o.workload != wlCold {
		if r.modelDir, err = ensureWarmModels(ctx, o.dsed, o.state, work); err != nil {
			return nil, err
		}
	}
	runErr := r.drive(ctx)
	r.observe(ctx)
	stopAll(r.daemons)
	if runErr != nil {
		return nil, runErr
	}
	ck := newChecker(r.modelDir, r.golden)
	r.checkAnswers(ctx, ck)

	var metrics map[string]float64
	if o.trace {
		metrics, err = r.perLayer(ctx, ck)
		if err != nil {
			return nil, err
		}
		if err := r.tr.write(filepath.Join(o.state, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))); err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
	} else {
		metrics = r.endToEnd()
	}
	var t tally
	for _, op := range r.ops {
		t.add(op.err == nil)
	}
	res := &result{
		Correct:   t.failed == 0 && len(r.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue),
	}
	defs := endToEndMetrics
	if o.trace {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	r.report(os.Stderr, t, res)
	return res, nil
}

// drive runs the workload's set-up and measured phase.
func (r *runner) drive(ctx context.Context) error {
	switch r.opts.workload {
	case wlCold:
		return r.coldStart(ctx)
	case wlWarm:
		return r.warmPareto(ctx)
	case wlMix:
		return r.interactiveMix(ctx)
	}
	return fmt.Errorf("unknown workload %q", r.opts.workload)
}

// observe records the serving daemons' end-of-run state: peak RSS and
// registry trainings.
func (r *runner) observe(ctx context.Context) {
	for _, d := range r.daemons {
		if mb, err := d.hwmMB(); err == nil {
			r.peakRSS = max(r.peakRSS, mb)
		}
		if h, err := getHealth(ctx, r.hc, d.addr); err == nil {
			r.trainings += h.Trainings
		}
	}
}

// checkAnswers validates every operation's answer; a wrong answer turns
// the operation into a failed one. Checks run after the measured phase
// so reference computations do not compete with the daemon, and outside
// any span, so the harness's own reference work stays out of the
// per-layer self times.
func (r *runner) checkAnswers(ctx context.Context, ck *checker) {
	reasons := make(map[string]int)
	for _, o := range r.ops {
		if o.err == nil {
			if o.spec != nil {
				o.err = ck.checkJob(ctx, *o.spec, o.final)
			} else {
				o.err = ck.checkPredict(*o.preq, o.presp)
			}
		}
		if o.err != nil {
			reasons[o.err.Error()]++
		}
	}
	for msg, n := range reasons {
		fmt.Fprintf(os.Stderr, "perfbench: %d× %s\n", n, msg)
	}
	r.tieOrderDiffs = ck.tieOrderDiffs
	if ck.tieOrderDiffs > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d frontiers matched the reference only up to the order of exactly tied candidates\n", ck.tieOrderDiffs)
	}
	if want := len(r.profiles) * r.passes; r.opts.workload == wlCold && r.trainings != want {
		r.problems = append(r.problems, fmt.Sprintf("registry ran %d trainings for %d benchmark requests", r.trainings, want))
	}
	if r.opts.workload != wlCold && r.trainings != 0 {
		r.problems = append(r.problems, fmt.Sprintf("warm daemons ran %d trainings", r.trainings))
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
}

// metricDef names a reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEndMetrics are reported by every workload with --trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"jobs_per_s", "1/s"},
	{"designs_per_s", "1/s"},
}

// samples splits successful operations into job and prediction
// latencies.
func (r *runner) samples() (jobs, predicts []time.Duration) {
	for _, o := range r.ops {
		if o.err != nil || o.duplicate {
			continue
		}
		if o.spec != nil {
			jobs = append(jobs, o.latency())
		} else {
			predicts = append(predicts, o.latency())
		}
	}
	return jobs, predicts
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// endToEnd computes the end-to-end metrics of the measured phase.
func (r *runner) endToEnd() map[string]float64 {
	jobs, _ := r.samples()
	js := durations(jobs, time.Second)
	wall := (r.phaseEnd.Sub(r.phaseStart) - r.idle).Seconds()
	var designs, done int
	for _, o := range r.ops {
		if o.err == nil && o.spec != nil {
			done++
			designs += o.final.Evaluated
		}
	}
	return map[string]float64{
		"setup_s":       medianDuration(r.setups).Seconds(),
		"job_p50_s":     percentile(js, 50),
		"job_p90_s":     percentile(js, 90),
		"jobs_per_s":    float64(done) / wall,
		"designs_per_s": float64(designs) / wall,
	}
}

// report prints a human-readable summary to w: every metric with its
// unit, and the sample counts behind each latency percentile.
func (r *runner) report(w io.Writer, t tally, res *result) {
	jobs, predicts := r.samples()
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v: correct=%v attempted=%d failed=%d (failed_frac %.4f)\n",
		r.opts.workload, r.opts.seed, r.opts.trace, res.Correct, t.attempted, t.failed, t.failedFrac())
	for _, kind := range []struct {
		name string
		n    int
	}{{"jobs", len(jobs)}, {"predictions", len(predicts)}} {
		tail := "none (fewer than 20 samples)"
		if p := reportableTail(kind.n); p > 0 {
			tail = fmt.Sprintf("p%g", p)
		}
		fmt.Fprintf(w, "  %s: n=%d, highest percentile with ten samples beyond it: %s\n", kind.name, kind.n, tail)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// ensureWarmModels returns a model directory holding every warm profile
// trained by this dsed binary, training it on first use. The cache is
// keyed by the binary's hash, so a change to the program retrains.
func ensureWarmModels(ctx context.Context, dsed, state, work string) (string, error) {
	f, err := os.Open(dsed)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(state, "models-"+hex.EncodeToString(h.Sum(nil))[:16])
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return dir, nil
	}
	old, _ := filepath.Glob(filepath.Join(state, "models-*"))
	for _, o := range old {
		os.RemoveAll(o)
	}
	tmp := filepath.Join(work, "train-models")
	addr, err := freeAddr()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(os.Stderr, "perfbench: training the warm model directory (%s)\n", strings.Join(warmProfiles, ","))
	d, err := startDaemon(ctx, dsed, addr, filepath.Join(work, "train.log"),
		"-benchmarks", strings.Join(warmProfiles, ","), "-model-dir", tmp)
	if err != nil {
		return "", err
	}
	trainCtx, cancel := context.WithTimeout(ctx, 10*time.Minute)
	defer cancel()
	hc := &http.Client{}
	err = d.waitReady(trainCtx, hc, len(warmProfiles)*len(servedMetrics))
	d.stop()
	if err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", errors.Join(err, os.RemoveAll(tmp))
	}
	return dir, nil
}
