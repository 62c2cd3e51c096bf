// Package workload generates the paper's evaluation programs in matched
// baseline/accelerated pairs:
//
//   - Synthetic — the §V-A adaptive microbenchmark: ALU filler with
//     randomly placed acceleratable regions; sweeping the region count
//     raises invocation frequency and coverage together (Fig. 4).
//   - Heap — the §V-B heap-manager benchmark: random malloc/free of four
//     TCMalloc size classes; the baseline inlines software allocator
//     routines with the paper's measured uop costs, the accelerated
//     version issues single-cycle heap-TCA instructions (Fig. 5).
//   - MatMul — the §V-C benchmark: N×N double-precision GEMM through B×B
//     cache blocking; accelerated versions replace the element-wise kernel
//     with t×t multiply-accumulate TCA invocations (Fig. 6).
//
// Every generator is deterministic in its seed and returns exact dynamic
// instruction accounting for model calibration.
package workload

import (
	"fmt"

	"repro/internal/isa"
)

// Workload is a matched pair of programs plus the metadata interval
// analysis needs.
type Workload struct {
	//lint:exempt-field R8 Workload.Name presentation only; identity comes from the programs and counts below
	Name string
	//lint:exempt-field R8 Workload.Description presentation only; never influences generated programs
	Description string

	// Baseline is the software-only program; Accelerated replaces the
	// acceleratable regions with TCA invocations.
	Baseline    *isa.Program
	Accelerated *isa.Program

	// Acceleratable is the dynamic baseline instruction count inside
	// acceleratable regions; Invocations is the dynamic TCA invocation
	// count in the accelerated program. BaselineInstructions is the
	// total dynamic baseline length.
	Acceleratable        uint64
	Invocations          uint64
	BaselineInstructions uint64

	// NewDevice builds a fresh accelerator device for one run (devices
	// are stateful). Nil for baseline-only workloads.
	NewDevice func() isa.AccelDevice

	// DeviceKey canonically describes the device NewDevice builds: two
	// workloads with equal keys must produce behaviorally identical
	// devices. The scenario layer folds it into run digests; a workload
	// with a device but no key is treated as uncacheable (never as
	// wrongly shared). Generators in this package always set it.
	DeviceKey string

	// AccelLatency, when positive, is the known per-invocation device
	// latency for the model's explicit-latency path.
	AccelLatency float64
}

// Validate checks the pair's structural consistency in O(1): both
// programs present, invocations counted, the acceleratable count in
// range. It does not walk the programs: isa.Builder.Build validated them
// when they were made, and the executors validate them again before
// running them (see DESIGN.md, "Program validity").
func (w *Workload) Validate() error {
	if w.Baseline == nil || w.Accelerated == nil {
		return fmt.Errorf("workload %s: missing program", w.Name)
	}
	if w.Invocations == 0 {
		return fmt.Errorf("workload %s: no invocations", w.Name)
	}
	if w.Acceleratable == 0 || w.Acceleratable >= w.BaselineInstructions {
		return fmt.Errorf("workload %s: acceleratable %d out of range (total %d)",
			w.Name, w.Acceleratable, w.BaselineInstructions)
	}
	return nil
}

// CoverageFrac returns a, the acceleratable fraction of the baseline.
func (w *Workload) CoverageFrac() float64 {
	return float64(w.Acceleratable) / float64(w.BaselineInstructions)
}

// InvocationFreq returns v, invocations per baseline instruction.
func (w *Workload) InvocationFreq() float64 {
	return float64(w.Invocations) / float64(w.BaselineInstructions)
}

// Granularity returns a/v, baseline instructions replaced per invocation.
func (w *Workload) Granularity() float64 {
	return float64(w.Acceleratable) / float64(w.Invocations)
}
