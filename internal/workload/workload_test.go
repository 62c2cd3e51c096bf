package workload

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
)

func TestSyntheticCounts(t *testing.T) {
	cfg := SyntheticConfig{Units: 50, UnitLen: 20, Regions: 10, RegionLen: 30, AccelLatency: 12, Seed: 1}
	w, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Acceleratable != 300 || w.Invocations != 10 {
		t.Errorf("accounting = %d/%d, want 300/10", w.Acceleratable, w.Invocations)
	}
	// Straight-line: dynamic == static, verified on the golden model.
	it, err := isa.NewInterp(w.Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	if it.Stats.Retired != w.BaselineInstructions {
		t.Errorf("baseline dynamic %d != recorded %d", it.Stats.Retired, w.BaselineInstructions)
	}
	// Accelerated program is shorter by (RegionLen-1) per region.
	wantAcc := w.BaselineInstructions - uint64(cfg.Regions*(cfg.RegionLen-1))
	ia, err := isa.NewInterp(w.Accelerated, w.NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	if err := ia.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	if ia.Stats.Retired != wantAcc {
		t.Errorf("accelerated dynamic %d, want %d", ia.Stats.Retired, wantAcc)
	}
	if ia.Stats.AccelInvocations != w.Invocations {
		t.Errorf("invocations %d, want %d", ia.Stats.AccelInvocations, w.Invocations)
	}
	// Derived ratios.
	if g := w.Granularity(); g != 30 {
		t.Errorf("granularity = %v, want 30", g)
	}
	if a := w.CoverageFrac(); a <= 0 || a >= 1 {
		t.Errorf("coverage = %v out of range", a)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	cfg := SyntheticConfig{Units: 20, UnitLen: 10, Regions: 5, RegionLen: 8, AccelLatency: 4, Seed: 9}
	w1, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := Synthetic(cfg)
	if len(w1.Baseline.Code) != len(w2.Baseline.Code) {
		t.Fatal("non-deterministic generation")
	}
	for i := range w1.Baseline.Code {
		if w1.Baseline.Code[i] != w2.Baseline.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{Units: 0, UnitLen: 1, Regions: 1, RegionLen: 2, AccelLatency: 1},
		{Units: 1, UnitLen: 1, Regions: 0, RegionLen: 2, AccelLatency: 1},
		{Units: 1, UnitLen: 1, Regions: 1, RegionLen: 1, AccelLatency: 1},
		{Units: 1, UnitLen: 1, Regions: 1, RegionLen: 2, AccelLatency: 0},
	}
	for i, cfg := range bad {
		if _, err := Synthetic(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestHeapRoutineLengths(t *testing.T) {
	// The inlined software routines must match the paper's measured uop
	// counts exactly; the generator panics if the core exceeds the
	// budget, and this test pins the arithmetic.
	cfg := HeapConfig{Operations: 40, FillerPerCall: 5, Prefill: 64, Seed: 3}
	w, err := Heap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mallocs, frees uint64
	for _, op := range heapOpSequenceForTest(cfg) {
		if op.malloc {
			mallocs++
		} else {
			frees++
		}
	}
	if want := mallocs*mallocUops + frees*freeUops; w.Acceleratable != want {
		t.Errorf("acceleratable = %d, want %d (%d mallocs, %d frees)",
			w.Acceleratable, want, mallocs, frees)
	}
	if w.Invocations != mallocs+frees {
		t.Errorf("invocations = %d, want %d", w.Invocations, mallocs+frees)
	}
	if w.AccelLatency != 1 {
		t.Errorf("heap TCA latency = %v, want 1 (single-cycle)", w.AccelLatency)
	}
}

func heapOpSequenceForTest(cfg HeapConfig) []heapOp {
	ops, _ := heapOpSequence(cfg)
	return ops
}

func TestHeapBaselineExecutes(t *testing.T) {
	w, err := Heap(HeapConfig{Operations: 200, FillerPerCall: 10, Prefill: 128, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	it, err := isa.NewInterp(w.Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	if it.Stats.Retired != w.BaselineInstructions {
		t.Errorf("dynamic %d != recorded %d", it.Stats.Retired, w.BaselineInstructions)
	}
	// The software allocator must never pop a null pointer: every
	// allocated pointer pushed to the live stack is within the arena.
	// (A zero pointer would have produced stores to low memory.)
	for addr := uint64(0); addr < 0x100; addr += 8 {
		if it.Mem.Load(addr) != 0 {
			t.Fatalf("stray store near null at %#x — allocator popped an empty list", addr)
		}
	}
}

func TestHeapAcceleratedExecutes(t *testing.T) {
	w, err := Heap(HeapConfig{Operations: 200, FillerPerCall: 10, Prefill: 128, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dev := w.NewDevice()
	it, err := isa.NewInterp(w.Accelerated, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	if it.Stats.AccelInvocations != w.Invocations {
		t.Errorf("invocations %d, want %d", it.Stats.AccelInvocations, w.Invocations)
	}
	// The benchmark's common-case constraint: the TCA never misses.
	if h, ok := dev.(*accel.Heap); !ok {
		t.Fatal("heap workload must use the heap TCA")
	} else if h.Misses != 0 {
		t.Errorf("TCA misses = %d, want 0 (common-case constraint)", h.Misses)
	}
}

func TestHeapSequenceKeepsFreesValid(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ops, maxLive := heapOpSequence(HeapConfig{Operations: 500, FillerPerCall: 1, Prefill: 64, Seed: seed})
		live := 0
		for i, op := range ops {
			if op.malloc {
				live++
			} else {
				live--
			}
			if live < 0 {
				t.Fatalf("seed %d: free with nothing live at op %d", seed, i)
			}
			if live > 64 {
				t.Fatalf("seed %d: live %d exceeds prefill cap", seed, live)
			}
		}
		if maxLive > 64 {
			t.Fatalf("seed %d: reported maxLive %d exceeds cap", seed, maxLive)
		}
	}
}

func TestMatMulCorrectness(t *testing.T) {
	cfg := MatMulConfig{N: 16, Block: 8, Tile: 4, Seed: 2}
	w, err := MatMul(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run both variants functionally and compare every C element against
	// a direct Go computation.
	ib, err := isa.NewInterp(w.Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ib.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	ia, err := isa.NewInterp(w.Accelerated, w.NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	if err := ia.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	n := cfg.N
	a := make([]float64, n*n)
	bm := make([]float64, n*n)
	for i := 0; i < n*n; i++ {
		a[i] = ib.Mem.LoadFloat(matABase + uint64(i)*8)
		bm[i] = ib.Mem.LoadFloat(matBBase + uint64(i)*8)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want float64
			for k := 0; k < n; k++ {
				want += a[i*n+k] * bm[k*n+j]
			}
			off := matCBase + uint64(i*n+j)*8
			if got := ib.Mem.LoadFloat(off); got != want {
				t.Fatalf("baseline C[%d][%d] = %v, want %v", i, j, got, want)
			}
			if got := ia.Mem.LoadFloat(off); got != want {
				t.Fatalf("accelerated C[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestMatMulAccounting(t *testing.T) {
	cfg := MatMulConfig{N: 16, Block: 8, Tile: 2, Seed: 2}
	w, err := MatMul(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Invocations: (N/B)^3 * (B/t)^3 = 2^3 * 4^3 = 512.
	if w.Invocations != 512 {
		t.Errorf("invocations = %d, want 512", w.Invocations)
	}
	// The element-wise kernel dominates the baseline: a > 90%.
	if a := w.CoverageFrac(); a < 0.9 {
		t.Errorf("coverage = %v, want > 0.9", a)
	}
	// Interpreter-verified invocation count.
	ia, err := isa.NewInterp(w.Accelerated, w.NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	if err := ia.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	if ia.Stats.AccelInvocations != w.Invocations {
		t.Errorf("dynamic invocations %d, want %d", ia.Stats.AccelInvocations, w.Invocations)
	}
}

func TestMatMulValidation(t *testing.T) {
	bad := []MatMulConfig{
		{N: 15, Block: 8, Tile: 4},
		{N: 16, Block: 6, Tile: 4},
		{N: 16, Block: 8, Tile: 3},
		{N: 16, Block: 8, Tile: 16},
	}
	for i, cfg := range bad {
		if _, err := MatMul(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	w := &Workload{Name: "x"}
	if err := w.Validate(); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestTCMallocDeviceMatchesPrefill(t *testing.T) {
	// The TCA-side allocator prefill must cover the benchmark's maximum
	// live count for every class.
	cfg := HeapConfig{Operations: 300, FillerPerCall: 2, Prefill: 32, Seed: 11}
	w, err := Heap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := w.NewDevice()
	it, err := isa.NewInterp(w.Accelerated, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	h := dev.(*accel.Heap)
	if h.Misses != 0 {
		t.Errorf("TCA misses = %d with prefill %d, want 0", h.Misses, cfg.Prefill)
	}
	if h.Alloc.Mallocs == 0 || h.Alloc.Frees == 0 {
		t.Error("device allocator never exercised")
	}
}
