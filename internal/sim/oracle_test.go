package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mathx"
	"repro/internal/space"
	"repro/internal/workload"
)

// The simulator oracle pins the exact output of the cycle-level model. The
// hashes below were recorded from the reference per-cycle simulator; any
// change to the core, the workload generator or the AVF/power accounting
// must reproduce them bit for bit. A mismatch means a change altered what
// is simulated: find the cause, never re-record to make a change pass.

var oracleOpts = Options{Instructions: 65536, Samples: 64}

// oracleServed covers three designs of the daemon trainer's LHS sample
// (40 designs, 10 candidates, seed 1) on every profile.
var oracleServed = map[string][3]string{
	"bzip2": {
		"a2c8ddb5d87e08a9865a768e64af1f74b3d11a4d28bb17f3e6da7562b57470c0",
		"027650e27447ae0189017a6052acfdaa20f870edca8ea07b905686f82d9c9e73",
		"dc31a040395aca09700a0014c30aa467328df6f24ad18d9ce6dbc65dc4dc15c7",
	},
	"crafty": {
		"23e4d94d23efa855cc976f4e8d58176130e390e5055b14a394071bce5d8ef9af",
		"71b9ca25fe9e4c6003ae4520686214d98fcdebec259f711f4238319469541ee1",
		"6d95b67d1551b0834ba38a4c52eeb5747230a3fe78070b3e961a94cf9d421ded",
	},
	"eon": {
		"5b6abc86a7aae7ccc409983e7243ad9174d009f9a77444903bf933ce7b8b71fd",
		"62c675b0e6dc990f940cd3247637b8c4a7ec2d6a31bd5b17125f93e40bd15782",
		"64c4cfb9ced817d0b8853853d94331f315896dd989487ff18d8fe71b9eba01be",
	},
	"gap": {
		"e269472c8e949920949c387afddf04034b1af262d4e5a600013097b5d19db8f6",
		"e166aa56b83b78f43e9a33edea049d593aa35d8acdd164e181a0be66d00d3ed1",
		"fb127feff61338da0a3d0b54a6b025db7d70e4553e14d6e845f348d83b8dd00f",
	},
	"gcc": {
		"f1b61186d734437d6b089c7a924299ab84e897b3251ffb989e12d63885915d5b",
		"7ce3283c626c1a8d33a5cb5171d1547d8ea4a1789cdc23442afc05526ac5e775",
		"5c803217a44d874091793e4e8171ec3886cc8d605c8e2cdfe9765ef278ab7397",
	},
	"mcf": {
		"6d096c162cc6cd5822c449503b9955213c27675cbf1a38c9e1ef200e7c65ef88",
		"baa851c17803ccd98538b0b730c72f273a2cde00c1f1bbdf0ca252b88cb7b0e8",
		"dbd6fba4f3e2027f3af334d823a4d52cbcff110d9f1c1432ba4400dcdb183022",
	},
	"parser": {
		"b4f65e7a9772f87957f040756b2b156211a6dbfb0255298b0ab0ddc66209a5d9",
		"3f6692d931162d340c6f5a55cdbe0f38f789cd5d9a512e01e840a035d0b80e02",
		"e2463803c5961b5a0079288b758af5917140a8a6b0d44167eada7a73cf23e210",
	},
	"perlbmk": {
		"86573bea3830862c96317d4511709b6ec666796684971c114ea79a5571337697",
		"38f7b21751a3e2622a505dca9f5cf400ea496d43061437991d0b6b1e690d974b",
		"7425c034fca4b6fe1f08728b4593e24cad994bb7230638131590ed06baac6959",
	},
	"swim": {
		"d4013dba629a3c71f63d530e6ded6259610b0e94862d96170365250ab6768914",
		"4955173c5388c5a12647002e77479561bf440140a521015077d3bedee4bdbebc",
		"268abfcab8396d2bd17277bba8108a30492c69915ec7eee8db980b1aab6d2432",
	},
	"twolf": {
		"0cc76374363606f27fcefc8d02805382803dcceefc9f63087a1ee8f26dec2ecb",
		"944207abcb4b74e7bc3c92191c8fcc81a13fb13f08c9d2925bb0a1a9eea019e4",
		"2d243a0549bb7b17249e85a0fff52d3448ea4405dcc3ea6f74bcc3f50dd34d5e",
	},
	"vortex": {
		"8bedd4d56cc8ae249e89447bafe472366d5b11170c2e1ae2f80589260001dccb",
		"d4317ab7f596f7009f88197529ae395e2d87cdf7fadf87458ee39afdd5d567f8",
		"9c009771c3983bd858280e64e36f1a526f486a7af7cff370cb143b5c11eae12f",
	},
	"vpr": {
		"4da4762ec98d495aeccc5d66c9f72b5e9e0b87bb07e2fe6fa947a4a0e11f658c",
		"b31ae2f2a7a44dc8cbfd4a0a17acab1a72077aa67c4039159f179a41ce744c97",
		"1f85ee9aebfbc7f5947b1ae03928edae34979bcadbf372ebc3827845c36360d1",
	},
}

// oracleServedIdx selects the designs of the served sample oracleServed
// covers.
var oracleServedIdx = [3]int{0, 17, 33}

// oracleDVM covers one DVM-enabled test-space design per profile: the
// controller samples every cycle, so these runs take the per-cycle path.
var oracleDVM = map[string]string{
	"bzip2":   "afaaf16863ef614aae8336849ad31bef5ef07f1923ccbeccaa9f423f97f71fe9",
	"crafty":  "1894a6bc15e64c7a42e800c98293d1924b5495e88a160adf06bfe638a86fc85c",
	"eon":     "cb2e081a243bbadde66adc174081fb7195e56e94daf0c7275fc19b6f875345ce",
	"gap":     "9583bf52d25e4c3e3b1b487c47fe3d62365033ac23eae3df0e722d19ba778567",
	"gcc":     "99b59a404e314d3566911f8979033b5012b9716be8cf99602d64b499fe8595aa",
	"mcf":     "5f8239455f3e8113ba3f3d72325b162651c562f1bd50f54f64702bdd97b071fb",
	"parser":  "2b1ec3832a2283a2604c0ef104679512b04ac9291a1fc6732dbd84c9d3a8c2e4",
	"perlbmk": "2f9588dbf585f5a6a6eeb4ad4b5f40443f3ecc37410d40bc3dc2ec4f662a5c12",
	"swim":    "30d22e7636eb16187fcbda44a9c53a16a43e2d72d51a0a250efe4d2ff226dd67",
	"twolf":   "2681126223cc33866bcbbeacdf61cc7605696c6da9eccab17e6b754c0efd88d1",
	"vortex":  "84ed1c9c334336a05f9b30f4699cbf3e37999d594bad503f6405071ffd865882",
	"vpr":     "78311f91c19729562facb7d765146eafa5549bf1159bceaa4f8b5cb5d020cc92",
}

// oracleContinued covers one core running twice back to back, so the
// second Run starts from the first's in-flight pipeline state.
const oracleContinued = "fe09728c05c0caf2baf74099ea4724b7ecefa74021e0f35f776ad2c05152e43d"

// hashTrace folds every series of a trace, every interval counter and the
// total cycles into h.
func hashTrace(h hash.Hash, tr *Trace) {
	var buf [8]byte
	for m := Metric(0); m < NumMetrics; m++ {
		for _, v := range tr.Series(m) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	hashIntervals(h, tr.Intervals)
}

// hashIntervals folds every field of every interval, then the total cycles,
// into h.
func hashIntervals(h hash.Hash, ivs []cpu.Interval) {
	var cycles uint64
	for _, iv := range ivs {
		if err := binary.Write(h, binary.LittleEndian, iv); err != nil {
			panic(err)
		}
		cycles += iv.Cycles
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], cycles)
	h.Write(buf[:])
}

// trace simulates one oracle case and returns its trace and digest.
func trace(t *testing.T, cfg space.Config, benchmark string) (*Trace, string) {
	t.Helper()
	tr, err := Run(cfg, benchmark, oracleOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashTrace(h, tr)
	return tr, hex.EncodeToString(h.Sum(nil))
}

func TestOracleServedDesigns(t *testing.T) {
	designs := space.SampleDesign(40, space.TrainLevels(), space.Baseline(), 10, mathx.NewRNG(1))
	for _, b := range workload.Names() {
		want, ok := oracleServed[b]
		if !ok {
			t.Fatalf("no oracle for profile %s", b)
		}
		for k, idx := range oracleServedIdx {
			if _, got := trace(t, designs[idx], b); got != want[k] {
				t.Errorf("%s design %d: digest %s, recorded %s", b, idx, got, want[k])
			}
		}
	}
}

func TestOracleDVMDesigns(t *testing.T) {
	names := workload.Names()
	designs := space.SampleDesign(len(names), space.TestLevels(), space.Baseline(), 10, mathx.NewRNG(7))
	var stalls uint64
	for i, b := range names {
		cfg := designs[i]
		cfg.DVM = true
		cfg.DVMThreshold = 0.25
		tr, got := trace(t, cfg, b)
		if got != oracleDVM[b] {
			t.Errorf("%s DVM design: digest %s, recorded %s", b, got, oracleDVM[b])
		}
		for _, iv := range tr.Intervals {
			stalls += iv.DVMStallCycles
		}
	}
	if stalls == 0 {
		t.Error("no DVM design throttled dispatch; the oracle does not cover the controller")
	}
}

func TestOracleContinuedRun(t *testing.T) {
	p, _ := workload.ProfileByName("mcf")
	core, err := cpu.New(space.Baseline(), workload.MustNewGenerator(p))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < 2; i++ {
		ivs, err := core.Run(oracleOpts.Instructions/2, oracleOpts.Samples/2)
		if err != nil {
			t.Fatal(err)
		}
		hashIntervals(h, ivs)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], core.Cycles())
	h.Write(buf[:])
	if got := hex.EncodeToString(h.Sum(nil)); got != oracleContinued {
		t.Errorf("continued run: digest %s, recorded %s", got, oracleContinued)
	}
}
