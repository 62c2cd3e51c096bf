package workload

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/sim"
)

func daeStreamTestConfig() DAEStreamConfig {
	return DAEStreamConfig{
		Streams: 12, WordsPerStream: 20, FillerPerOp: 25,
		ChunkWords: 8, ComputePerChunk: 6, Startup: 15, Seed: 7,
	}
}

// TestDAEStreamEquivalence runs both program variants on the golden model
// and requires the same reduction totals: the software loops and the DAE
// device implement one function.
func TestDAEStreamEquivalence(t *testing.T) {
	w, err := DAEStream(daeStreamTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ib, err := isa.NewInterp(w.Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ib.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	dev := w.NewDevice()
	ia, err := isa.NewInterp(w.Accelerated, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := ia.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	if ib.Regs[28] != ia.Regs[28] {
		t.Errorf("totals diverge: baseline %#x, accelerated %#x", ib.Regs[28], ia.Regs[28])
	}
	if ib.Regs[28] == 0 {
		t.Error("reduction total is zero — streams not initialized")
	}
	d := dev.(*accel.DAE)
	if d.Invocations != w.Invocations || d.WordsStreamed != 12*20 {
		t.Errorf("device counters = (%d, %d), want (%d, %d)",
			d.Invocations, d.WordsStreamed, w.Invocations, 12*20)
	}
	if ib.Stats.Retired != w.BaselineInstructions {
		t.Errorf("baseline dynamic %d != recorded %d", ib.Stats.Retired, w.BaselineInstructions)
	}
	if ia.Stats.AccelInvocations != w.Invocations {
		t.Errorf("invocations %d, want %d", ia.Stats.AccelInvocations, w.Invocations)
	}
}

func TestDAEStreamAccounting(t *testing.T) {
	cfg := daeStreamTestConfig()
	w, err := DAEStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Region = base move + accumulator clear + (load, add) per word.
	perStream := uint64(2 + 2*cfg.WordsPerStream)
	if want := uint64(cfg.Streams) * perStream; w.Acceleratable != want {
		t.Errorf("acceleratable = %d, want %d", w.Acceleratable, want)
	}
	if w.Invocations != uint64(cfg.Streams) {
		t.Errorf("invocations = %d, want %d", w.Invocations, cfg.Streams)
	}
	if w.AccelLatency != 0 {
		t.Errorf("accel latency = %v, want 0 (memory-dependent, measured)", w.AccelLatency)
	}
	if w.DeviceKey != "dae:chunk=8,comp=6,start=15" {
		t.Errorf("device key = %q", w.DeviceKey)
	}
}

func TestDAEStreamValidation(t *testing.T) {
	bad := []DAEStreamConfig{
		{Streams: 0, WordsPerStream: 1, FillerPerOp: 1, ChunkWords: 4, ComputePerChunk: 1},
		{Streams: 1, WordsPerStream: 0, FillerPerOp: 1, ChunkWords: 4, ComputePerChunk: 1},
		{Streams: 1, WordsPerStream: 1, FillerPerOp: 0, ChunkWords: 4, ComputePerChunk: 1},
		{Streams: 1, WordsPerStream: 1, FillerPerOp: 1, ChunkWords: 9, ComputePerChunk: 1},
		{Streams: 1, WordsPerStream: 1, FillerPerOp: 1, ChunkWords: 4, ComputePerChunk: 0},
		{Streams: 1, WordsPerStream: 1, FillerPerOp: 1, ChunkWords: 4, ComputePerChunk: 1, Startup: -1},
	}
	for i, cfg := range bad {
		if _, err := DAEStream(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func loopNestTestConfig() LoopNestConfig {
	return LoopNestConfig{
		Calls: 15, FillerPerOp: 25, Trips: 4, Depth: 3,
		IterLatency: 2, ConfigLatency: 40, Seed: 8,
	}
}

// TestLoopNestEquivalence runs both program variants on the golden model:
// the unrolled software recurrence and the accelerator datapath must agree.
func TestLoopNestEquivalence(t *testing.T) {
	w, err := LoopNest(loopNestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ib, err := isa.NewInterp(w.Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ib.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	dev := w.NewDevice()
	ia, err := isa.NewInterp(w.Accelerated, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := ia.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	if ib.Regs[28] != ia.Regs[28] {
		t.Errorf("totals diverge: baseline %#x, accelerated %#x", ib.Regs[28], ia.Regs[28])
	}
	d := dev.(*accel.LoopNest)
	if d.Invocations != 15 || d.Iterations != 15*64 {
		t.Errorf("device counters = (%d, %d), want (15, %d)", d.Invocations, d.Iterations, 15*64)
	}
	if ib.Stats.Retired != w.BaselineInstructions {
		t.Errorf("baseline dynamic %d != recorded %d", ib.Stats.Retired, w.BaselineInstructions)
	}
}

func TestLoopNestAccounting(t *testing.T) {
	cfg := loopNestTestConfig()
	w, err := LoopNest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	iters := 64 // 4^3
	if want := uint64(cfg.Calls) * uint64(2+2*iters); w.Acceleratable != want {
		t.Errorf("acceleratable = %d, want %d", w.Acceleratable, want)
	}
	// The closed-form device latency feeds the model's explicit path.
	if want := float64(cfg.ConfigLatency + iters*cfg.IterLatency); w.AccelLatency != want {
		t.Errorf("accel latency = %v, want %v", w.AccelLatency, want)
	}
	if w.DeviceKey != "loopnest:depth=3,iter=2,conf=40" {
		t.Errorf("device key = %q", w.DeviceKey)
	}
}

func TestLoopNestValidation(t *testing.T) {
	bad := []LoopNestConfig{
		{Calls: 0, FillerPerOp: 1, Trips: 2, Depth: 1, IterLatency: 1},
		{Calls: 1, FillerPerOp: 0, Trips: 2, Depth: 1, IterLatency: 1},
		{Calls: 1, FillerPerOp: 1, Trips: 0, Depth: 1, IterLatency: 1},
		{Calls: 1, FillerPerOp: 1, Trips: 2, Depth: 0, IterLatency: 1},
		{Calls: 1, FillerPerOp: 1, Trips: 2, Depth: 1, IterLatency: 0},
		{Calls: 1, FillerPerOp: 1, Trips: 2, Depth: 1, IterLatency: 1, ConfigLatency: -1},
		{Calls: 64, FillerPerOp: 1, Trips: 32, Depth: 4, IterLatency: 1}, // unroll bound
	}
	for i, cfg := range bad {
		if _, err := LoopNest(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestEngineWorkloadDeterminism pins byte-identical regeneration for both
// new families.
func TestEngineWorkloadDeterminism(t *testing.T) {
	d1, err := DAEStream(daeStreamTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := DAEStream(daeStreamTestConfig())
	l1, err := LoopNest(loopNestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := LoopNest(loopNestTestConfig())
	for _, pair := range []struct {
		name string
		a, b *isa.Program
	}{
		{"daestream", d1.Accelerated, d2.Accelerated},
		{"loopnest", l1.Accelerated, l2.Accelerated},
	} {
		if len(pair.a.Code) != len(pair.b.Code) {
			t.Fatalf("%s: non-deterministic generation", pair.name)
		}
		for i := range pair.a.Code {
			if pair.a.Code[i] != pair.b.Code[i] {
				t.Fatalf("%s: instruction %d differs", pair.name, i)
			}
		}
	}
}

// BenchmarkDAEWorkload measures the full DAE pipeline: generate the
// matched pair, then cycle-simulate the accelerated program on the
// high-performance core in L_T mode.
func BenchmarkDAEWorkload(b *testing.B) {
	w, err := DAEStream(DAEStreamConfig{
		Streams: 8, WordsPerStream: 64, FillerPerOp: 30,
		ChunkWords: 8, ComputePerChunk: 4, Startup: 40, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.HighPerfConfig()
	cfg.Mode = accel.LT

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core, err := sim.New(cfg, w.Accelerated, w.NewDevice())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(2_000_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
