package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// brokenWorkload hand-assembles a copy of the store test workload whose
// accelerated program has one instruction changed by breakAt, bypassing
// isa.Builder and therefore its validation.
func brokenWorkload(t *testing.T, breakAt func(in *isa.Instruction) bool) *workload.Workload {
	t.Helper()
	w := *storeTestWorkload(t)
	acc := *w.Accelerated
	acc.Code = append([]isa.Instruction(nil), acc.Code...)
	for i := range acc.Code {
		if breakAt(&acc.Code[i]) {
			w.Accelerated = &acc
			if acc.Validate() == nil {
				t.Fatal("broken program still validates")
			}
			return &w
		}
	}
	t.Fatal("no instruction to break")
	return nil
}

// TestBrokenProgramRejectedAtExecution: Workload.Validate no longer walks
// the programs, so a hand-assembled workload whose accelerated program
// breaks a register class passes the structural checks — and must then
// be refused by the executors (sim.New, staticmodel.NewProfile) with an
// error: no panic, no measurement or prediction served, and no blob
// written for anything but the valid baseline run.
func TestBrokenProgramRejectedAtExecution(t *testing.T) {
	breaks := map[string]func(in *isa.Instruction) bool{
		"accel-arg-out-of-range": func(in *isa.Instruction) bool {
			if in.Op != isa.OpAccel {
				return false
			}
			in.Src2 = isa.NumRegs
			return true
		},
		"int-dst-in-fp-file": func(in *isa.Instruction) bool {
			if !in.HasDst() || in.Op.IsFP() || in.Op == isa.OpAccel {
				return false
			}
			in.Dst = isa.F(3)
			return true
		},
	}
	cfg := sim.HighPerfConfig()
	for name, breakAt := range breaks {
		t.Run(name, func(t *testing.T) {
			w := brokenWorkload(t, breakAt)
			if err := w.Validate(); err != nil {
				t.Fatalf("structural Validate walked the program: %v", err)
			}

			// The ISA's own message reaches the caller, so a daemon
			// client sees which instruction and field are wrong.
			if _, err := MeasureWorkloadStore(nil, cfg, w, 1); err == nil || !strings.Contains(err.Error(), "register") {
				t.Errorf("nil store: measurement of a broken program: error %v, want a register-class error", err)
			}
			if _, err := StaticPredictWorkloadStore(nil, cfg, w); err == nil {
				t.Error("nil store: static prediction of a broken program succeeded")
			}

			mem, err := scenario.NewStore("")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := MeasureWorkloadStore(mem, cfg, w, 1); err == nil {
					t.Errorf("memory store, call %d: measurement of a broken program succeeded", i)
				}
				if _, err := StaticPredictWorkloadStore(mem, cfg, w); err == nil {
					t.Errorf("memory store, call %d: static prediction of a broken program succeeded", i)
				}
			}
			if m := mem.Metrics(); m.MeasureMisses != 1 || m.StaticMisses != 1 {
				t.Errorf("memory store computed measure %d and static %d times, want 1 each (the error is cached)",
					m.MeasureMisses, m.StaticMisses)
			}

			dir := t.TempDir()
			disk, err := scenario.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := MeasureWorkloadStore(disk, cfg, w, 1); err == nil {
				t.Error("disk store: measurement of a broken program succeeded")
			}
			blobs, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
			if err != nil {
				t.Fatal(err)
			}
			base := scenario.Spec{Config: cfg, Program: w.Baseline, MaxCycles: maxCycles}.Digest().String()
			for _, b := range blobs {
				if name := filepath.Base(b); name != "run-"+base+".json" {
					t.Errorf("disk store wrote %s for a broken workload", name)
				}
			}
		})
	}
}
