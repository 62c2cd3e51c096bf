package sim

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/tcmalloc"
)

// runBoth executes prog on the interpreter and the simulator and fails the
// test on any architectural divergence. It returns the simulation result.
// devFor builds a fresh device per execution engine (devices are stateful).
func runBoth(t *testing.T, cfg Config, prog *isa.Program, devFor func() isa.AccelDevice) *Result {
	t.Helper()
	var idev, sdev isa.AccelDevice
	if devFor != nil {
		idev, sdev = devFor(), devFor()
	}
	it, err := isa.NewInterp(prog, idev)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(50_000_000); err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	core, err := New(cfg, prog, sdev)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	res, err := core.Run(200_000_000)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if res.Stats.Committed != it.Stats.Retired {
		t.Errorf("committed %d != retired %d", res.Stats.Committed, it.Stats.Retired)
	}
	for r := 0; r < isa.NumRegs; r++ {
		if res.Regs[r] != it.Regs[r] {
			t.Errorf("reg %s: sim %#x != interp %#x", isa.Reg(r), res.Regs[r], it.Regs[r])
		}
	}
	if !res.Mem.Equal(it.Mem) {
		t.Error("final memory images differ")
	}
	return res
}

func sumProgram(n int64) *isa.Program {
	b := isa.NewBuilder()
	b.MovI(isa.R(1), 0)
	b.MovI(isa.R(2), 1)
	b.MovI(isa.R(3), n)
	b.Label("loop")
	b.Add(isa.R(1), isa.R(1), isa.R(2))
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Bge(isa.R(3), isa.R(2), "loop")
	b.MovI(isa.R(4), 0x1000)
	b.Store(isa.R(1), isa.R(4), 0)
	b.Halt()
	return b.MustBuild()
}

func TestSimMatchesInterpreterOnLoop(t *testing.T) {
	res := runBoth(t, HighPerfConfig(), sumProgram(500), nil)
	if res.Regs[isa.R(1)] != 125250 {
		t.Errorf("sum = %d, want 125250", res.Regs[isa.R(1)])
	}
	if res.Stats.Cycles <= 0 {
		t.Error("no cycles recorded")
	}
}

func TestSimIPCOnIndependentALUWork(t *testing.T) {
	// 4000 independent single-cycle adds on an HP core should sustain an
	// IPC close to the 4-wide dispatch limit.
	b := isa.NewBuilder()
	for i := 0; i < 4000; i++ {
		b.AddI(isa.R(1+i%8), isa.RZero, int64(i))
	}
	b.Halt()
	res := runBoth(t, HighPerfConfig(), b.MustBuild(), nil)
	if ipc := res.Stats.IPC(); ipc < 3.0 {
		t.Errorf("IPC = %.2f, want near 4 on independent work", ipc)
	}
}

func TestSimSerialDependencyChainIPC(t *testing.T) {
	// A pure dependency chain cannot exceed IPC 1.
	b := isa.NewBuilder()
	b.MovI(isa.R(1), 0)
	for i := 0; i < 2000; i++ {
		b.AddI(isa.R(1), isa.R(1), 1)
	}
	b.Halt()
	res := runBoth(t, HighPerfConfig(), b.MustBuild(), nil)
	if ipc := res.Stats.IPC(); ipc > 1.05 {
		t.Errorf("IPC = %.2f on a serial chain, want <= ~1", ipc)
	}
	if res.Regs[isa.R(1)] != 2000 {
		t.Errorf("chain result = %d, want 2000", res.Regs[isa.R(1)])
	}
}

func TestSimStoreToLoadForwarding(t *testing.T) {
	b := isa.NewBuilder()
	b.MovI(isa.R(1), 0x2000)
	b.MovI(isa.R(2), 77)
	b.Store(isa.R(2), isa.R(1), 0)
	b.Load(isa.R(3), isa.R(1), 0) // must forward from the in-flight store
	b.Store(isa.R(3), isa.R(1), 8)
	b.Halt()
	res := runBoth(t, HighPerfConfig(), b.MustBuild(), nil)
	if res.Regs[isa.R(3)] != 77 {
		t.Errorf("forwarded load = %d, want 77", res.Regs[isa.R(3)])
	}
	if res.Stats.LoadsForwarded != 1 {
		t.Errorf("forwarded = %d, want 1", res.Stats.LoadsForwarded)
	}
}

func TestSimBranchMispredictRecovery(t *testing.T) {
	// A data-dependent alternating branch defeats the predictor early;
	// correctness must be unaffected.
	b := isa.NewBuilder()
	b.MovI(isa.R(1), 0)  // i
	b.MovI(isa.R(2), 0)  // acc
	b.MovI(isa.R(3), 64) // limit
	b.Label("loop")
	b.AddI(isa.R(4), isa.RZero, 1)
	b.And(isa.R(4), isa.R(1), isa.R(4)) // i & 1
	b.Beq(isa.R(4), isa.RZero, "even")
	b.AddI(isa.R(2), isa.R(2), 100)
	b.Jmp("next")
	b.Label("even")
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Label("next")
	b.AddI(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(3), "loop")
	b.Halt()
	res := runBoth(t, HighPerfConfig(), b.MustBuild(), nil)
	if want := uint64(32*100 + 32); res.Regs[isa.R(2)] != want {
		t.Errorf("acc = %d, want %d", res.Regs[isa.R(2)], want)
	}
	if res.Stats.Mispredicts == 0 {
		t.Error("expected some mispredicts on a data-dependent branch")
	}
	if res.Stats.Squashed == 0 {
		t.Error("mispredicts must squash wrong-path work")
	}
}

// accelProgram interleaves fixed-latency TCA invocations with independent
// ALU filler.
func accelProgram(invocations, fillerPer int) *isa.Program {
	b := isa.NewBuilder()
	b.MovI(isa.R(1), 5)
	for i := 0; i < invocations; i++ {
		for f := 0; f < fillerPer; f++ {
			b.AddI(isa.R(2+f%6), isa.RZero, int64(f))
		}
		b.Accel(isa.R(10), 0, isa.R(1))
	}
	b.Halt()
	return b.MustBuild()
}

func TestSimAccelModesOrdering(t *testing.T) {
	prog := accelProgram(60, 30)
	cycles := make(map[accel.Mode]int64)
	for _, m := range accel.AllModes {
		cfg := HighPerfConfig()
		cfg.Mode = m
		res := runBoth(t, cfg, prog, func() isa.AccelDevice { return accel.NewFixedLatency(40) })
		cycles[m] = res.Stats.Cycles
		if res.Stats.AccelCommitted != 60 {
			t.Fatalf("%s: accel committed = %d, want 60", m, res.Stats.AccelCommitted)
		}
	}
	// The paper's fundamental ordering: more concurrency is never slower.
	if cycles[accel.LT] > cycles[accel.NLT] || cycles[accel.LT] > cycles[accel.LNT] {
		t.Errorf("L_T (%d) must be fastest (NL_T %d, L_NT %d)",
			cycles[accel.LT], cycles[accel.NLT], cycles[accel.LNT])
	}
	if cycles[accel.NLNT] < cycles[accel.LNT] || cycles[accel.NLNT] < cycles[accel.NLT] {
		t.Errorf("NL_NT (%d) must be slowest (L_NT %d, NL_T %d)",
			cycles[accel.NLNT], cycles[accel.LNT], cycles[accel.NLT])
	}
	// Fine-grained invocations must actually separate the modes.
	if cycles[accel.NLNT] == cycles[accel.LT] {
		t.Error("modes indistinguishable; drain/barrier penalties not modeled")
	}
}

func TestSimNTBarrierStalls(t *testing.T) {
	prog := accelProgram(20, 10)
	for _, m := range []accel.Mode{accel.NLNT, accel.LNT} {
		cfg := HighPerfConfig()
		cfg.Mode = m
		core, _ := New(cfg, prog, accel.NewFixedLatency(50))
		res, err := core.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DispatchStalls.Barrier == 0 {
			t.Errorf("%s: no barrier stalls recorded", m)
		}
	}
	for _, m := range []accel.Mode{accel.NLT, accel.LT} {
		cfg := HighPerfConfig()
		cfg.Mode = m
		core, _ := New(cfg, prog, accel.NewFixedLatency(50))
		res, err := core.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DispatchStalls.Barrier != 0 {
			t.Errorf("%s: barrier stalls in a trailing mode", m)
		}
	}
}

func TestSimNLDrainWait(t *testing.T) {
	prog := accelProgram(20, 40)
	cfg := HighPerfConfig()
	cfg.Mode = accel.NLT
	core, _ := New(cfg, prog, accel.NewFixedLatency(30))
	res, err := core.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AccelDrainWait == 0 {
		t.Error("NL mode recorded no drain wait")
	}
}

func TestSimAccelEventTrace(t *testing.T) {
	prog := accelProgram(5, 10)
	cfg := HighPerfConfig()
	cfg.RecordAccelEvents = true
	core, _ := New(cfg, prog, accel.NewFixedLatency(25))
	res, err := core.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.AccelEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(res.Stats.AccelEvents))
	}
	for _, ev := range res.Stats.AccelEvents {
		if !(ev.Dispatch <= ev.Start && ev.Start < ev.Done && ev.Done <= ev.Commit) {
			t.Errorf("event ordering violated: %+v", ev)
		}
		if ev.Done-ev.Start < 25 {
			t.Errorf("accel executed in %d cycles, latency is 25", ev.Done-ev.Start)
		}
	}
}

func TestSimHeapDeviceWithSpeculation(t *testing.T) {
	// Heap TCA under a mispredicting branch: journal rollback must keep
	// the simulator's allocator state identical to the interpreter's.
	build := func() *isa.Program {
		b := isa.NewBuilder()
		b.MovI(isa.R(1), 0)  // i
		b.MovI(isa.R(3), 48) // malloc size
		b.MovI(isa.R(5), 0x8000)
		b.Label("loop")
		b.AddI(isa.R(4), isa.RZero, 3)
		b.Rem(isa.R(4), isa.R(1), isa.R(4))
		b.Beq(isa.R(4), isa.RZero, "skip") // taken every 3rd iteration
		b.Accel(isa.R(6), accel.HeapMalloc, isa.R(3))
		b.Store(isa.R(6), isa.R(5), 0)
		b.AddI(isa.R(5), isa.R(5), 8)
		b.Accel(isa.R(7), accel.HeapFree, isa.R(6))
		b.Label("skip")
		b.AddI(isa.R(1), isa.R(1), 1)
		b.MovI(isa.R(2), 90)
		b.Blt(isa.R(1), isa.R(2), "loop")
		b.Halt()
		return b.MustBuild()
	}
	mkdev := func() isa.AccelDevice {
		a := tcmalloc.New(0x100000, 1<<20)
		if err := a.Refill(1, 64); err != nil {
			panic(err)
		}
		return accel.NewHeap(a)
	}
	for _, m := range accel.AllModes {
		cfg := HighPerfConfig()
		cfg.Mode = m
		res := runBoth(t, cfg, build(), mkdev)
		if res.Stats.AccelCommitted != 120 { // 60 iterations * 2 calls
			t.Errorf("%s: accel committed = %d, want 120", m, res.Stats.AccelCommitted)
		}
	}
}

func TestSimConfigValidation(t *testing.T) {
	cfg := HighPerfConfig()
	cfg.ROBSize = 0
	if _, err := New(cfg, sumProgram(1), nil); err == nil {
		t.Error("invalid config accepted")
	}
	if err := HighPerfConfig().Validate(); err != nil {
		t.Errorf("HP preset invalid: %v", err)
	}
	if err := LowPerfConfig().Validate(); err != nil {
		t.Errorf("LP preset invalid: %v", err)
	}
	if err := A72Config().Validate(); err != nil {
		t.Errorf("A72 preset invalid: %v", err)
	}
}

func TestSimRejectsAccelWithoutDevice(t *testing.T) {
	if _, err := New(HighPerfConfig(), accelProgram(1, 1), nil); err == nil {
		t.Error("accel program without device accepted")
	}
}

// TestSimRejectsOutOfRangeRegister: a hand-assembled program naming a
// register past the 64-entry file is refused by New with an error; it
// never reaches the pipeline, where it would index the rename table and
// register file out of range.
func TestSimRejectsOutOfRangeRegister(t *testing.T) {
	progs := map[string]*isa.Program{
		"fp-dst-200": {Code: []isa.Instruction{
			{Op: isa.OpFAdd, Dst: 200, Src1: isa.F(1), Src2: isa.F(2)},
			{Op: isa.OpHalt},
		}},
		"accel-src-64": {Code: []isa.Instruction{
			{Op: isa.OpAccel, Dst: isa.R(1), Src1: isa.R(2), Src2: isa.NumRegs},
			{Op: isa.OpHalt},
		}},
	}
	for name, p := range progs {
		if _, err := New(HighPerfConfig(), p, accel.NewFixedLatency(3)); err == nil {
			t.Errorf("%s: New accepted a program with an out-of-range register", name)
		}
	}
}

func TestSimCycleLimit(t *testing.T) {
	core, _ := New(HighPerfConfig(), sumProgram(100000), nil)
	if _, err := core.Run(100); err == nil {
		t.Error("expected cycle-limit error")
	}
}

func TestSimLowPerfSlowerThanHighPerf(t *testing.T) {
	prog := sumProgram(2000)
	hp, _ := New(HighPerfConfig(), prog, nil)
	lp, _ := New(LowPerfConfig(), prog, nil)
	hres, err := hp.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := lp.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Stats.Cycles <= hres.Stats.Cycles {
		t.Errorf("LP (%d cycles) not slower than HP (%d cycles)",
			lres.Stats.Cycles, hres.Stats.Cycles)
	}
}
