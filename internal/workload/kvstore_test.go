package workload

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
)

func kvConfig() KVStoreConfig {
	return KVStoreConfig{
		Operations: 150, FillerPerOp: 15, Buckets: 256, Keys: 100,
		LookupPct: 70, Seed: 5,
	}
}

func TestKVStoreBaselineAcceleratedAgree(t *testing.T) {
	w, err := KVStore(kvConfig())
	if err != nil {
		t.Fatal(err)
	}
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
	// The software probe and the TCA must leave identical table state.
	for i := 0; i < 256; i++ {
		addr := uint64(kvTableBase) + uint64(i)*16
		if ib.Mem.Load(addr) != ia.Mem.Load(addr) || ib.Mem.Load(addr+8) != ia.Mem.Load(addr+8) {
			t.Fatalf("bucket %d diverged: sw (%d,%d) vs tca (%d,%d)", i,
				ib.Mem.Load(addr), ib.Mem.Load(addr+8),
				ia.Mem.Load(addr), ia.Mem.Load(addr+8))
		}
	}
	if ia.Stats.AccelInvocations != w.Invocations {
		t.Errorf("invocations %d, want %d", ia.Stats.AccelInvocations, w.Invocations)
	}
	if w.BaselineInstructions != ib.Stats.Retired {
		t.Errorf("recorded baseline length %d != %d", w.BaselineInstructions, ib.Stats.Retired)
	}
	// Hash-map probes are the fine-grained regime: ~10-30 instructions
	// per call (the paper's Fig. 2 hash-map marker).
	if g := w.Granularity(); g < 8 || g > 60 {
		t.Errorf("granularity = %v, want the fine-grained band", g)
	}
}

func TestKVStoreHashConstantsInSync(t *testing.T) {
	// The software baseline and the device must hash identically, or
	// their probe sequences (and table layouts) diverge.
	dev := accel.NewHashMap(kvTableBase, 256)
	for key := uint64(1); key < 100; key++ {
		want := int((key * kvHashMult) & 255)
		if got := dev.HashBucket(key); got != want {
			t.Fatalf("hash constants out of sync: device %d vs workload %d", got, want)
		}
	}
}

func TestKVStoreValidation(t *testing.T) {
	bad := []KVStoreConfig{
		{Operations: 1, FillerPerOp: 0, Buckets: 64, Keys: 10, LookupPct: 50},
		{Operations: 10, FillerPerOp: 0, Buckets: 63, Keys: 10, LookupPct: 50},
		{Operations: 10, FillerPerOp: 0, Buckets: 64, Keys: 33, LookupPct: 50},
		{Operations: 10, FillerPerOp: 0, Buckets: 64, Keys: 10, LookupPct: 101},
	}
	for i, cfg := range bad {
		if _, err := KVStore(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestStringMatchBaselineAcceleratedAgree(t *testing.T) {
	cfg := StringMatchConfig{
		Comparisons: 120, FillerPerOp: 10, Dictionary: 24,
		MinWords: 3, MaxWords: 20, SharedPrefix: 2, Seed: 8,
	}
	w, err := StringMatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	// Final comparison result registers must agree (the last op's result
	// survives in smRes).
	if ib.Reg(isa.R(smRes)) != ia.Reg(isa.R(smRes)) {
		t.Errorf("final strcmp results differ: sw %d vs tca %d",
			ib.Reg(isa.R(smRes)), ia.Reg(isa.R(smRes)))
	}
	if ia.Stats.AccelInvocations != w.Invocations {
		t.Errorf("invocations %d, want %d", ia.Stats.AccelInvocations, w.Invocations)
	}
	// Long comparisons with shared prefixes: granularity in the tens to
	// low hundreds of instructions (Fig. 2's string-fn marker).
	if g := w.Granularity(); g < 20 || g > 400 {
		t.Errorf("granularity = %v, want string-function band", g)
	}
}

// Exhaustive semantic check: software strcmp result == device result for
// every dictionary pair.
func TestStringMatchSemanticsMatchDevice(t *testing.T) {
	cfg := StringMatchConfig{
		Comparisons: 2, FillerPerOp: 0, Dictionary: 10,
		MinWords: 1, MaxWords: 6, SharedPrefix: 1, Seed: 42,
	}
	w, err := StringMatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem := w.Baseline.NewMemoryImage()
	dev := accel.NewStrCmp()
	for a := 0; a < cfg.Dictionary; a++ {
		for b := 0; b < cfg.Dictionary; b++ {
			aBase := uint64(smStringsBase + a*smStride)
			bBase := uint64(smStringsBase + b*smStride)
			devRes := dev.Invoke(isa.AccelCall{Kind: accel.StrCompare, Args: [3]uint64{aBase, bBase}}, mem)
			swRes := goStrcmp(mem, aBase, bBase)
			if devRes.Value != swRes {
				t.Fatalf("pair (%d,%d): device %d vs reference %d", a, b, devRes.Value, swRes)
			}
		}
	}
}

// goStrcmp is an independent Go reference of the comparison semantics.
func goStrcmp(m *isa.Memory, a, b uint64) uint64 {
	for off := uint64(0); ; off += 8 {
		wa, wb := m.Load(a+off), m.Load(b+off)
		switch {
		case wa == wb && wa == 0:
			return accel.StrEqual
		case wa == wb:
			continue
		case wa < wb:
			return accel.StrLess
		default:
			return accel.StrGreater
		}
	}
}

func TestStringMatchValidation(t *testing.T) {
	bad := []StringMatchConfig{
		{Comparisons: 1, Dictionary: 4, MinWords: 1, MaxWords: 2},
		{Comparisons: 5, Dictionary: 1, MinWords: 1, MaxWords: 2},
		{Comparisons: 5, Dictionary: 4, MinWords: 3, MaxWords: 2},
		{Comparisons: 5, Dictionary: 4, MinWords: 2, MaxWords: 4, SharedPrefix: 3},
	}
	for i, cfg := range bad {
		if _, err := StringMatch(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
