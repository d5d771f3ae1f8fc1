package cpu

import (
	"math"
	"testing"

	"repro/internal/space"
	"repro/internal/workload"
)

func mustRun(t *testing.T, cfg space.Config, bench string, instrs uint64, samples int) []Interval {
	t.Helper()
	p, ok := workload.ProfileByName(bench)
	if !ok {
		t.Fatalf("no profile %s", bench)
	}
	core, err := New(cfg, workload.MustNewGenerator(p))
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := core.Run(instrs, samples)
	if err != nil {
		t.Fatal(err)
	}
	return ivs
}

func totalCycles(ivs []Interval) uint64 {
	var c uint64
	for _, iv := range ivs {
		c += iv.Cycles
	}
	return c
}

func meanCPI(ivs []Interval) float64 {
	var cyc, ins uint64
	for _, iv := range ivs {
		cyc += iv.Cycles
		ins += iv.Instrs
	}
	return float64(cyc) / float64(ins)
}

func TestRunBasicInvariants(t *testing.T) {
	ivs := mustRun(t, space.Baseline(), "gcc", 64000, 32)
	if len(ivs) != 32 {
		t.Fatalf("got %d intervals, want 32", len(ivs))
	}
	var instrs uint64
	for i, iv := range ivs {
		instrs += iv.Instrs
		if iv.Cycles == 0 {
			t.Errorf("interval %d has zero cycles", i)
		}
		if iv.CPI() < 0.125 || iv.CPI() > 100 {
			t.Errorf("interval %d CPI = %v, implausible", i, iv.CPI())
		}
		if iv.IQAVF < 0 || iv.IQAVF > 1 {
			t.Errorf("interval %d IQ AVF = %v, outside [0,1]", i, iv.IQAVF)
		}
		if iv.ROBAVF < 0 || iv.ROBAVF > 1 {
			t.Errorf("interval %d ROB AVF = %v, outside [0,1]", i, iv.ROBAVF)
		}
		if iv.AvgIQOcc > float64(space.Baseline().IQSize) {
			t.Errorf("interval %d IQ occupancy %v exceeds capacity", i, iv.AvgIQOcc)
		}
	}
	if instrs != 64000 {
		t.Errorf("committed %d instructions, want 64000", instrs)
	}
}

func TestRunArgumentValidation(t *testing.T) {
	p, _ := workload.ProfileByName("eon")
	core, err := New(space.Baseline(), workload.MustNewGenerator(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(0, 4); err == nil {
		t.Error("zero instructions should fail")
	}
	if _, err := core.Run(100, 0); err == nil {
		t.Error("zero samples should fail")
	}
	if _, err := core.Run(100, 3); err == nil {
		t.Error("non-divisible sample count should fail")
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, space.Baseline(), "vpr", 32000, 8)
	b := mustRun(t, space.Baseline(), "vpr", 32000, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interval %d differs between identical runs", i)
		}
	}
}

func TestAllBenchmarksRunOnExtremeCorners(t *testing.T) {
	// Smallest and largest configurations of the Table 2 space.
	small := space.Baseline().WithSweptValues([space.NumParams]int{2, 96, 32, 16, 256, 20, 8, 8, 4})
	big := space.Baseline().WithSweptValues([space.NumParams]int{16, 160, 128, 64, 4096, 8, 64, 64, 1})
	for _, name := range workload.Names() {
		for _, cfg := range []space.Config{small, big} {
			ivs := mustRun(t, cfg, name, 16000, 8)
			if cpi := meanCPI(ivs); cpi < 0.125 || cpi > 150 {
				t.Errorf("%s on %v: CPI %v implausible", name, cfg, cpi)
			}
		}
	}
}

func TestWiderMachineIsFaster(t *testing.T) {
	narrow := space.Baseline()
	narrow.FetchWidth = 2
	wide := space.Baseline()
	wide.FetchWidth = 16
	// swim has abundant ILP: width must pay off clearly.
	cn := totalCycles(mustRun(t, narrow, "swim", 48000, 8))
	cw := totalCycles(mustRun(t, wide, "swim", 48000, 8))
	if cw >= cn {
		t.Errorf("16-wide (%d cycles) should beat 2-wide (%d cycles) on swim", cw, cn)
	}
}

func TestLargerL2HelpsMcf(t *testing.T) {
	smallL2 := space.Baseline()
	smallL2.L2SizeKB = 256
	bigL2 := space.Baseline()
	bigL2.L2SizeKB = 4096
	cs := totalCycles(mustRun(t, smallL2, "mcf", 48000, 8))
	cb := totalCycles(mustRun(t, bigL2, "mcf", 48000, 8))
	if cb >= cs {
		t.Errorf("4MB L2 (%d cycles) should beat 256KB (%d cycles) on mcf", cb, cs)
	}
}

func TestLargerDL1HelpsWorkingSetBenchmark(t *testing.T) {
	smallD := space.Baseline()
	smallD.DL1SizeKB = 8
	bigD := space.Baseline()
	bigD.DL1SizeKB = 64
	// twolf's hot set straddles the DL1 range.
	cs := totalCycles(mustRun(t, smallD, "twolf", 48000, 8))
	cb := totalCycles(mustRun(t, bigD, "twolf", 48000, 8))
	if cb >= cs {
		t.Errorf("64KB DL1 (%d) should beat 8KB (%d) on twolf", cb, cs)
	}
}

func TestLargerIL1HelpsBigCodeBenchmark(t *testing.T) {
	smallI := space.Baseline()
	smallI.IL1SizeKB = 8
	bigI := space.Baseline()
	bigI.IL1SizeKB = 64
	// vortex has a 128KB code footprint.
	cs := totalCycles(mustRun(t, smallI, "vortex", 48000, 8))
	cb := totalCycles(mustRun(t, bigI, "vortex", 48000, 8))
	if cb >= cs {
		t.Errorf("64KB IL1 (%d) should beat 8KB (%d) on vortex", cb, cs)
	}
}

func TestLowerDL1LatencyHelps(t *testing.T) {
	slow := space.Baseline()
	slow.DL1Lat = 4
	fast := space.Baseline()
	fast.DL1Lat = 1
	cs := totalCycles(mustRun(t, slow, "parser", 48000, 8))
	cf := totalCycles(mustRun(t, fast, "parser", 48000, 8))
	if cf >= cs {
		t.Errorf("1-cycle DL1 (%d) should beat 4-cycle (%d)", cf, cs)
	}
}

func TestBiggerWindowHelpsMemoryBoundCode(t *testing.T) {
	// With long-latency misses, a larger ROB/IQ/LSQ exposes more MLP.
	small := space.Baseline()
	small.ROBSize, small.IQSize, small.LSQSize = 96, 32, 16
	big := space.Baseline()
	big.ROBSize, big.IQSize, big.LSQSize = 160, 128, 64
	cs := totalCycles(mustRun(t, small, "swim", 48000, 8))
	cb := totalCycles(mustRun(t, big, "swim", 48000, 8))
	if cb >= cs {
		t.Errorf("big window (%d) should beat small window (%d) on swim", cb, cs)
	}
}

func TestIQAVFRespondsToIQSize(t *testing.T) {
	// AVF = ACE-entry-cycles / (size × cycles): a bigger IQ with similar
	// occupancy must show lower IQ AVF.
	small := space.Baseline()
	small.IQSize = 32
	big := space.Baseline()
	big.IQSize = 128
	avgAVF := func(ivs []Interval) float64 {
		var s float64
		for _, iv := range ivs {
			s += iv.IQAVF
		}
		return s / float64(len(ivs))
	}
	as := avgAVF(mustRun(t, small, "gcc", 48000, 8))
	ab := avgAVF(mustRun(t, big, "gcc", 48000, 8))
	if ab >= as {
		t.Errorf("128-entry IQ AVF (%v) should be below 32-entry (%v)", ab, as)
	}
}

func TestBranchHeavyCodeMispredicts(t *testing.T) {
	ivs := mustRun(t, space.Baseline(), "crafty", 48000, 8)
	var br, mp uint64
	for _, iv := range ivs {
		br += iv.Branches
		mp += iv.Mispredicts
	}
	rate := float64(mp) / float64(br)
	if rate < 0.02 || rate > 0.4 {
		t.Errorf("crafty misprediction rate = %v, want a plausible (0.02, 0.4)", rate)
	}
}

func TestPredictableCodeMispredictsLess(t *testing.T) {
	rate := func(bench string) float64 {
		ivs := mustRun(t, space.Baseline(), bench, 48000, 8)
		var br, mp uint64
		for _, iv := range ivs {
			br += iv.Branches
			mp += iv.Mispredicts
		}
		return float64(mp) / float64(br)
	}
	if rs, rc := rate("swim"), rate("crafty"); rs >= rc {
		t.Errorf("swim mispredict rate (%v) should be below crafty (%v)", rs, rc)
	}
}

func TestDynamicsVaryOverTime(t *testing.T) {
	// The whole point of the paper: sampled CPI must vary within a run.
	ivs := mustRun(t, space.Baseline(), "gap", 128000, 64)
	minC, maxC := ivs[0].CPI(), ivs[0].CPI()
	for _, iv := range ivs {
		c := iv.CPI()
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC/minC < 1.15 {
		t.Errorf("gap CPI dynamic range %v–%v too flat; phases not visible", minC, maxC)
	}
}

func TestDVMReducesIQAVF(t *testing.T) {
	p, _ := workload.ProfileByName("gcc")
	run := func(enable bool) (avgIQAVF, cpi float64) {
		core, err := New(space.Baseline(), workload.MustNewGenerator(p))
		if err != nil {
			t.Fatal(err)
		}
		if enable {
			core.EnableDVM(0.2, 2000)
		}
		ivs, err := core.Run(64000, 16)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, iv := range ivs {
			s += iv.IQAVF
		}
		return s / float64(len(ivs)), meanCPI(ivs)
	}
	avfOff, cpiOff := run(false)
	avfOn, cpiOn := run(true)
	if avfOn >= avfOff {
		t.Errorf("DVM should reduce IQ AVF: on=%v off=%v", avfOn, avfOff)
	}
	if cpiOn < cpiOff {
		t.Errorf("DVM throttling should not speed the machine up: on=%v off=%v", cpiOn, cpiOff)
	}
}

func TestDVMStallsReported(t *testing.T) {
	p, _ := workload.ProfileByName("mcf")
	core, err := New(space.Baseline(), workload.MustNewGenerator(p))
	if err != nil {
		t.Fatal(err)
	}
	core.EnableDVM(0.1, 1000) // aggressive threshold → frequent throttles
	ivs, err := core.Run(32000, 8)
	if err != nil {
		t.Fatal(err)
	}
	var stalls uint64
	for _, iv := range ivs {
		stalls += iv.DVMStallCycles
	}
	if stalls == 0 {
		t.Error("aggressive DVM on mcf should report throttle cycles")
	}
}

// BenchmarkCoreCycles times single pipeline steps of a committing core; a
// step covers one busy cycle or a fast-forwarded run of idle ones, so it
// also reports the time per simulated cycle.
func BenchmarkCoreCycles(b *testing.B) {
	p, _ := workload.ProfileByName("gcc")
	core, err := New(space.Baseline(), workload.MustNewGenerator(p))
	if err != nil {
		b.Fatal(err)
	}
	core.commitStop = math.MaxUint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(core.Cycles()), "ns/cycle")
}

func BenchmarkCorePerInstruction(b *testing.B) {
	p, _ := workload.ProfileByName("gcc")
	core, err := New(space.Baseline(), workload.MustNewGenerator(p))
	if err != nil {
		b.Fatal(err)
	}
	n := uint64(b.N)
	if n < 8 {
		n = 8
	}
	n -= n % 8
	b.ResetTimer()
	if _, err := core.Run(n, 1); err != nil {
		b.Fatal(err)
	}
}
