package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/proggen"
	"repro/internal/tcmalloc"
	"repro/internal/workload"
)

const ckptBudget = 2_000_000_000

// ckptCase is one program/device/config combination checked for checkpoint
// transparency.
type ckptCase struct {
	name string
	cfg  Config
	prog *isa.Program
	dev  func() isa.AccelDevice // nil for baseline programs
}

func (c ckptCase) newCore(t *testing.T) *Core {
	t.Helper()
	var dev isa.AccelDevice
	if c.dev != nil {
		dev = c.dev()
	}
	core, err := New(c.cfg, c.prog, dev)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return core
}

// assertSameResult demands the interrupted run be indistinguishable from the
// reference: deeply equal statistics (including the accel-event and pipe
// traces), byte-identical stats in the JSON form the scenario store persists
// and scenariod sends, and identical final architectural state.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("%s: stats diverge from uninterrupted run:\nuninterrupted:\n%v\n%s:\n%v",
			label, want.Stats, label, got.Stats)
	}
	jw, err := json.Marshal(want.Stats)
	if err != nil {
		t.Fatalf("%s: marshal uninterrupted stats: %v", label, err)
	}
	jg, err := json.Marshal(got.Stats)
	if err != nil {
		t.Fatalf("%s: marshal stats: %v", label, err)
	}
	if !bytes.Equal(jw, jg) {
		t.Errorf("%s: JSON stats are not byte-identical to the uninterrupted run", label)
	}
	if want.Regs != got.Regs {
		t.Errorf("%s: final register files diverge", label)
	}
	if !want.Mem.Equal(got.Mem) {
		t.Errorf("%s: final memory images diverge", label)
	}
}

// assertCheckpointTransparent is the heart of the differential suite: pause
// at cycle k, snapshot, and demand that (a) Clone is a deep copy, (b) the
// paused core, continued, finishes bit-identically to an uninterrupted run
// (taking a checkpoint perturbs nothing), (c) a fresh core resumed from the
// snapshot itself with a fresh device finishes bit-identically too, and (d)
// that resume leaves the snapshot untouched — the scenario store forks every
// member of a warmup family from one shared Checkpoint, so no fork may
// mutate it.
func assertCheckpointTransparent(t *testing.T, c ckptCase, k int64) {
	t.Helper()
	ref, err := c.newCore(t).Run(ckptBudget)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	core := c.newCore(t)
	paused, err := core.RunTo(ckptBudget, k)
	if err != nil {
		t.Fatalf("RunTo(%d): %v", k, err)
	}
	if !paused {
		// A fast-forward jump may land past halt; the run is already
		// complete and must still match the reference.
		res, err := core.Run(ckptBudget)
		if err != nil {
			t.Fatalf("finish after missed pause: %v", err)
		}
		assertSameResult(t, "ran-past-pause", ref, res)
		return
	}
	ck, err := core.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint at cycle %d: %v", core.Cycle(), err)
	}

	pristine := ck.Clone()
	if !reflect.DeepEqual(ck, pristine) {
		t.Fatalf("Clone is not deeply equal to its source")
	}

	cont, err := core.Run(ckptBudget)
	if err != nil {
		t.Fatalf("continue after checkpoint: %v", err)
	}
	assertSameResult(t, "paused-then-continued", ref, cont)

	var dev isa.AccelDevice
	if c.dev != nil {
		dev = c.dev()
	}
	rcore, err := NewFromCheckpoint(c.cfg, c.prog, dev, ck)
	if err != nil {
		t.Fatalf("NewFromCheckpoint: %v", err)
	}
	rres, err := rcore.Run(ckptBudget)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	assertSameResult(t, "resumed", ref, rres)
	if !reflect.DeepEqual(ck, pristine) {
		t.Errorf("checkpoint mutated by the continued or resumed run (cycle %d): a shared snapshot would leak state between forks", ck.Now)
	}
}

// refCycles measures the uninterrupted cycle count so tests can aim k at a
// mid-run boundary.
func refCycles(t *testing.T, c ckptCase) int64 {
	t.Helper()
	res, err := c.newCore(t).Run(ckptBudget)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res.Stats.Cycles
}

// TestCheckpointResumeOnWorkloads checks checkpoint/resume transparency for
// every benchmark workload: the baseline program plus all four TCA
// integration modes, snapshotting halfway through the run. Traces are left
// on so the comparison covers the accel-event and pipeline traces, not just
// scalar counters.
func TestCheckpointResumeOnWorkloads(t *testing.T) {
	type build struct {
		name string
		cfg  func() Config
		make func() (*workload.Workload, error)
	}
	builds := []build{
		{"synthetic", HighPerfConfig, func() (*workload.Workload, error) {
			return workload.Synthetic(workload.SyntheticConfig{
				Units: 40, UnitLen: 30, Regions: 12, RegionLen: 40,
				AccelLatency: 400, Seed: 1,
			})
		}},
		{"heap", LowPerfConfig, func() (*workload.Workload, error) {
			return workload.Heap(workload.HeapConfig{
				Operations: 120, FillerPerCall: 40, Prefill: 64, Seed: 2,
			})
		}},
		{"matmul", HighPerfConfig, func() (*workload.Workload, error) {
			return workload.MatMul(workload.MatMulConfig{N: 16, Block: 8, Tile: 4, Seed: 3})
		}},
		{"kvstore", A72Config, func() (*workload.Workload, error) {
			return workload.KVStore(workload.KVStoreConfig{
				Operations: 100, FillerPerOp: 30, Buckets: 256, Keys: 64,
				LookupPct: 70, KeyWords: 4, Seed: 4,
			})
		}},
		{"regex", HighPerfConfig, func() (*workload.Workload, error) {
			return workload.RegexMatch(workload.RegexMatchConfig{
				Pattern: "ab*c.d+", Matches: 40, FillerPerOp: 30,
				Inputs: 8, MaxLen: 24, Seed: 5,
			})
		}},
		{"stringmatch", LowPerfConfig, func() (*workload.Workload, error) {
			return workload.StringMatch(workload.StringMatchConfig{
				Comparisons: 60, FillerPerOp: 30, Dictionary: 12,
				MinWords: 4, MaxWords: 10, SharedPrefix: 3, Seed: 6,
			})
		}},
		{"multitca", HighPerfConfig, func() (*workload.Workload, error) {
			cfg := workload.DefaultMultiTCA()
			cfg.Calls = 60
			return workload.MultiTCA(cfg)
		}},
	}
	for _, bld := range builds {
		w, err := bld.make()
		if err != nil {
			t.Fatalf("%s: %v", bld.name, err)
		}
		traced := func() Config {
			cfg := bld.cfg()
			cfg.RecordAccelEvents = true
			cfg.PipeTraceLimit = 300
			return cfg
		}
		t.Run(bld.name+"-baseline", func(t *testing.T) {
			c := ckptCase{name: bld.name, cfg: traced(), prog: w.Baseline}
			assertCheckpointTransparent(t, c, refCycles(t, c)/2)
		})
		for _, m := range accel.AllModes {
			t.Run(fmt.Sprintf("%s-%s", bld.name, m), func(t *testing.T) {
				cfg := traced()
				cfg.Mode = m
				c := ckptCase{name: bld.name, cfg: cfg, prog: w.Accelerated, dev: w.NewDevice}
				assertCheckpointTransparent(t, c, refCycles(t, c)/2)
			})
		}
	}
}

// TestCheckpointResumeAtManyBoundaries sweeps the snapshot cycle across the
// run — near fetch of the first instructions, mid-run with the ROB full and
// invocations in flight, and just before halt.
func TestCheckpointResumeAtManyBoundaries(t *testing.T) {
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 120, FillerPerCall: 40, Prefill: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LowPerfConfig()
	cfg.Mode = accel.LT
	cfg.RecordAccelEvents = true
	cfg.PipeTraceLimit = 300
	c := ckptCase{cfg: cfg, prog: w.Accelerated, dev: w.NewDevice}
	total := refCycles(t, c)
	for _, num := range []int64{1, 2, 4, 6, 7} {
		k := total * num / 8
		if k < 1 {
			k = 1
		}
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			assertCheckpointTransparent(t, c, k)
		})
	}
}

// TestCheckpointResumePartialSpeculation repeats the differential test with
// the confidence gate active, over the same random-program seeds the
// equivalence suite uses (the gate's wait counters and predictor-confidence
// state must survive the snapshot).
func TestCheckpointResumePartialSpeculation(t *testing.T) {
	opt := proggen.DefaultOptions()
	opt.AccelEvery = 2
	opt.HeapAccel = true
	heap := func() isa.AccelDevice {
		a := tcmalloc.New(0x200000, 1<<22)
		for c := 0; c < tcmalloc.NumClasses; c++ {
			if err := a.Refill(c, 256); err != nil {
				panic(err)
			}
		}
		return accel.NewHeap(a)
	}
	for seed := int64(400); seed < 408; seed++ {
		prog := proggen.Generate(seed, opt)
		for _, m := range []accel.Mode{accel.LNT, accel.LT} {
			for _, kind := range []string{"bimodal", "gshare"} {
				t.Run(fmt.Sprintf("seed%d-%s-%s", seed, m, kind), func(t *testing.T) {
					cfg := HighPerfConfig()
					cfg.Mode = m
					cfg.PartialSpeculation = true
					cfg.Predictor = PredictorConfig{Kind: kind}
					c := ckptCase{cfg: cfg, prog: prog, dev: heap}
					assertCheckpointTransparent(t, c, refCycles(t, c)/2)
				})
			}
		}
	}
}

// TestCheckpointParallelForks takes ONE warm suffix-free snapshot at the
// accel-fetch boundary and forks eight post-warmup variants from it
// concurrently — the scenario-store fast path. Each fork must match a fresh
// uninterrupted run of its own configuration; the shared Checkpoint is never
// mutated, which the race detector verifies when the suite runs under -race.
func TestCheckpointParallelForks(t *testing.T) {
	w, err := workload.KVStore(workload.KVStoreConfig{
		Operations: 100, FillerPerOp: 30, Buckets: 256, Keys: 64,
		LookupPct: 70, KeyWords: 4, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := A72Config()
	warm, err := New(base, w.Accelerated, w.NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	paused, err := warm.RunToAccelFetch(ckptBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !paused {
		t.Fatal("workload halted before any accel fetch")
	}
	ck, err := warm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !ck.SuffixFree {
		t.Fatal("snapshot at the accel-fetch boundary should precede any accel dispatch")
	}
	for _, m := range accel.AllModes {
		for _, partial := range []bool{false, true} {
			m, partial := m, partial
			t.Run(fmt.Sprintf("%s-partial=%v", m, partial), func(t *testing.T) {
				t.Parallel()
				cfg := base
				cfg.Mode = m
				cfg.PartialSpeculation = partial
				fork, err := NewFromCheckpoint(cfg, w.Accelerated, w.NewDevice(), ck)
				if err != nil {
					t.Fatalf("NewFromCheckpoint: %v", err)
				}
				got, err := fork.Run(ckptBudget)
				if err != nil {
					t.Fatalf("forked run: %v", err)
				}
				fresh := ckptCase{cfg: cfg, prog: w.Accelerated, dev: w.NewDevice}
				want, err := fresh.newCore(t).Run(ckptBudget)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				assertSameResult(t, "fork", want, got)
			})
		}
	}
}

// bareDevice hides the AccelSnapshotter implementation of the device it
// wraps, modeling a device that cannot be snapshotted.
type bareDevice struct {
	isa.AccelDevice
}

// TestCheckpointValidation pins the rejection paths: suffix-bound snapshots
// refuse cross-mode resume, program mismatches are caught by the hash,
// corrupt bytes fail to decode, and an invoked non-snapshottable device
// refuses to checkpoint (while a pristine one does not).
func TestCheckpointValidation(t *testing.T) {
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 120, FillerPerCall: 40, Prefill: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LowPerfConfig()
	cfg.Mode = accel.LT
	c := ckptCase{cfg: cfg, prog: w.Accelerated, dev: w.NewDevice}
	total := refCycles(t, c)

	core := c.newCore(t)
	if paused, err := core.RunTo(ckptBudget, total/2); err != nil || !paused {
		t.Fatalf("RunTo: paused=%v err=%v", paused, err)
	}
	ck, err := core.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.SuffixFree {
		t.Fatalf("snapshot halfway through an accel workload should be suffix-bound")
	}

	// Suffix-bound snapshot, different mode: rejected.
	other := cfg
	other.Mode = accel.NLNT
	if _, err := NewFromCheckpoint(other, w.Accelerated, w.NewDevice(), ck); err == nil {
		t.Error("cross-mode resume from a suffix-bound snapshot was not rejected")
	}
	// Same canonical config, different program: rejected by the hash.
	if _, err := NewFromCheckpoint(cfg, w.Baseline, w.NewDevice(), ck); err == nil {
		t.Error("resume under a different program was not rejected")
	}
	// Prefix-identical configs that differ only in erased fields: accepted.
	renamed := cfg
	renamed.Name = "renamed"
	if _, err := NewFromCheckpoint(renamed, w.Accelerated, w.NewDevice(), ck); err != nil {
		t.Errorf("rename-only config change rejected: %v", err)
	}

	// A non-snapshottable device blocks checkpointing only once invoked.
	bare := c
	bare.dev = func() isa.AccelDevice { return bareDevice{w.NewDevice()} }
	bcore := bare.newCore(t)
	if _, err := bcore.Checkpoint(); err != nil {
		t.Errorf("pristine non-snapshottable device refused to checkpoint: %v", err)
	}
	if paused, err := bcore.RunTo(ckptBudget, total/2); err != nil || !paused {
		t.Fatalf("RunTo: paused=%v err=%v", paused, err)
	}
	if _, err := bcore.Checkpoint(); err == nil {
		t.Error("invoked non-snapshottable device did not refuse to checkpoint")
	}
}
