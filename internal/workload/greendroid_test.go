package workload

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
)

func TestMultiTCAAccounting(t *testing.T) {
	cfg := DefaultMultiTCA()
	cfg.Calls = 60
	w, err := MultiTCA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Straight-line: dynamic == static, verified on the golden model.
	it, err := isa.NewInterp(w.Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	if it.Stats.Retired != w.BaselineInstructions {
		t.Errorf("baseline dynamic %d != recorded %d", it.Stats.Retired, w.BaselineInstructions)
	}
	ia, err := isa.NewInterp(w.Accelerated, w.NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	if err := ia.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	if ia.Stats.AccelInvocations != uint64(cfg.Calls) {
		t.Errorf("invocations %d, want %d", ia.Stats.AccelInvocations, cfg.Calls)
	}
	// Every function's body was replaced by exactly one instruction:
	// accelerated length = baseline - acceleratable + calls.
	want := w.BaselineInstructions - w.Acceleratable + uint64(cfg.Calls)
	if ia.Stats.Retired != want {
		t.Errorf("accelerated dynamic %d, want %d", ia.Stats.Retired, want)
	}
	// GreenDroid-band granularity: hundreds of instructions.
	if g := w.Granularity(); g < 100 || g > 1000 {
		t.Errorf("granularity %v outside the GreenDroid band", g)
	}
	// Weighted mean latency matches the call mix.
	if w.AccelLatency < 10 || w.AccelLatency > 300 {
		t.Errorf("mean latency %v implausible", w.AccelLatency)
	}
}

func TestMultiTCADistinctDevicesInvoked(t *testing.T) {
	cfg := DefaultMultiTCA()
	cfg.Calls = 100
	w, err := MultiTCA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := w.NewDevice().(*accel.Mux)
	ia, err := isa.NewInterp(w.Accelerated, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := ia.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	used := 0
	for i := 0; i < len(cfg.Functions); i++ {
		if fl, ok := dev.Device(i).(*accel.FixedLatency); ok && fl.Invocations > 0 {
			used++
		}
	}
	if used < 5 {
		t.Errorf("only %d of %d function TCAs invoked over 100 calls", used, len(cfg.Functions))
	}
}

func TestMultiTCAValidation(t *testing.T) {
	bad := []MultiTCAConfig{
		{Functions: nil, Calls: 10},
		{Functions: GreenDroidFunctions(), Calls: 1},
		{Functions: []OffloadFunction{{Name: "x", Instructions: 1, AccelLatency: 1, Weight: 1}}, Calls: 10},
		{Functions: []OffloadFunction{{Name: "x", Instructions: 10, AccelLatency: 0, Weight: 1}}, Calls: 10},
	}
	for i, cfg := range bad {
		if _, err := MultiTCA(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
