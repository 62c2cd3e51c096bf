// Package repro's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (one benchmark per artifact, reporting the
// headline quantities as custom metrics) plus micro-benchmarks of the
// engines underneath.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Benchmarks shrink the simulated sweeps enough to iterate; cmd/figures
// regenerates the full-size artifacts.
package repro

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/staticmodel"
	"repro/internal/workload"
)

// BenchmarkFig2Granularity regenerates the introduction's granularity
// study: analytical speedup for all four modes across 8 decades of
// accelerator granularity.
func BenchmarkFig2Granularity(b *testing.B) {
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(experiments.DefaultFig2())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	fine := last.Points[0].Speedups
	b.ReportMetric(fine.LT, "fine-L_T-speedup")
	b.ReportMetric(fine.NLNT, "fine-NL_NT-speedup")
}

// BenchmarkFig3Timelines regenerates the per-mode interval timelines.
func BenchmarkFig3Timelines(b *testing.B) {
	p := core.HPCore().Apply(core.Params{
		AcceleratableFrac: 0.3, InvocationFreq: 0.003, AccelFactor: 3,
	})
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SyntheticSweep regenerates (a reduced) synthetic
// microbenchmark validation: simulator vs model across invocation counts,
// reporting the worst-case model error.
func BenchmarkFig4SyntheticSweep(b *testing.B) {
	cfg := experiments.DefaultFig4()
	cfg.Units = 150
	cfg.RegionCounts = []int{5, 20, 80}
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst = res.MaxAbsError()
	}
	b.ReportMetric(100*worst, "max-error-%")
}

// BenchmarkFig5Heap regenerates (a reduced) heap-manager validation sweep,
// reporting the L_T speedup at the highest call frequency.
func BenchmarkFig5Heap(b *testing.B) {
	cfg := experiments.DefaultFig5()
	cfg.Operations = 200
	cfg.FillerCounts = []int{0, 40, 160}
	var headline float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		headline = res.Rows[0].Result.Mode(accel.LT).SimSpeedup
	}
	b.ReportMetric(headline, "hifreq-L_T-speedup")
}

// BenchmarkFig5HeapWarmupFork measures what warm-checkpoint forking buys
// on a warmup-heavy heap design-space sweep: the Fig. 5 heap workload
// with a 200k-instruction scalar warmup ahead of its accelerated region,
// swept over every post-warmup config variant (four TCA modes x partial
// speculation on/off x accel-event recording on/off = 16 points in one
// warmup family). With forking the store simulates the shared prefix
// once and forks the 16 variants off that checkpoint; Direct
// re-simulates the prefix per point. The
// Fork/Direct pair is the headline claim of warm-state checkpointing:
// Direct ns/op over Fork ns/op should exceed 2x. BENCH_PR6.json records
// both.
func BenchmarkFig5HeapWarmupFork(b *testing.B) {
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 40, FillerPerCall: 0, Prefill: 512, Seed: 7,
		WarmupFiller: 200_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	var specs []scenario.Spec
	for _, m := range accel.AllModes {
		for _, partial := range []bool{false, true} {
			for _, record := range []bool{false, true} {
				cfg := sim.HighPerfConfig()
				cfg.Mode = m
				cfg.PartialSpeculation = partial
				cfg.RecordAccelEvents = record
				specs = append(specs, scenario.Spec{
					Config:    cfg,
					Program:   w.Accelerated,
					NewDevice: w.NewDevice,
					DeviceKey: w.DeviceKey,
					MaxCycles: 4_000_000_000,
				})
			}
		}
	}
	sweep := func(b *testing.B, fork bool) {
		b.Helper()
		var forks, warmups int64
		for i := 0; i < b.N; i++ {
			store, err := scenario.NewStore("")
			if err != nil {
				b.Fatal(err)
			}
			if !fork {
				store.DisableCheckpointForking()
			}
			for _, spec := range specs {
				if _, err := store.RunStats(spec); err != nil {
					b.Fatal(err)
				}
			}
			m := store.Metrics()
			forks += m.CkptForks
			warmups += m.CkptWarmups
		}
		b.ReportMetric(float64(forks)/float64(b.N), "ckpt-forks/op")
		b.ReportMetric(float64(warmups)/float64(b.N), "ckpt-warmups/op")
	}
	b.Run("Fork", func(b *testing.B) { sweep(b, true) })
	b.Run("Direct", func(b *testing.B) { sweep(b, false) })
}

// BenchmarkFig6MatMul regenerates (a reduced) DGEMM validation: 2x2, 4x4
// and 8x8 accelerators in all four modes, reporting the 8x8 L_T speedup.
func BenchmarkFig6MatMul(b *testing.B) {
	cfg := experiments.Fig6Config{
		Core: sim.HighPerfConfig(), N: 32, Block: 16, Tiles: []int{2, 4, 8}, Seed: 3,
	}
	var headline float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		headline = res.Rows[2].Result.Mode(accel.LT).SimSpeedup
	}
	b.ReportMetric(headline, "8x8-L_T-speedup")
}

// BenchmarkFig7Heatmap regenerates the design-space heatmaps (2 cores x 4
// modes), reporting the HP core's NL_NT slowdown share.
func BenchmarkFig7Heatmap(b *testing.B) {
	var share map[string]float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(experiments.DefaultFig7())
		if err != nil {
			b.Fatal(err)
		}
		share = res.SlowdownShare()
	}
	b.ReportMetric(100*share["ipc1.8-NL_NT"], "hp-NL_NT-slowdown-%")
}

// BenchmarkFig8Concurrency regenerates the coverage study, reporting the
// L_T peak (the paper's A+1 concurrency headline).
func BenchmarkFig8Concurrency(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.DefaultFig8())
		if err != nil {
			b.Fatal(err)
		}
		peak = res.PeakSpeedup
	}
	b.ReportMetric(peak, "peak-speedup")
}

// BenchmarkE1LogCAComparison regenerates the LogCA-vs-TCA-model extension
// study.
func BenchmarkE1LogCAComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E1(experiments.DefaultE1()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Pareto regenerates the hardware-cost Pareto extension study.
func BenchmarkE2Pareto(b *testing.B) {
	gs := []float64{30, 100, 300, 1e3, 1e4, 1e6}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E2(core.HPCore(), gs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3PartialSpeculation regenerates the partial-speculation
// extension study (simulated), reporting the squash reduction at the
// highest surprise rate.
func BenchmarkE3PartialSpeculation(b *testing.B) {
	cfg := experiments.DefaultE3()
	cfg.Iterations = 200
	cfg.SkipEvery = []int{3, 8}
	var saved float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p := res.Points[0]
		saved = float64(p.FullSquashed - p.PartialSquashed)
	}
	b.ReportMetric(saved, "squashes-avoided")
}

// BenchmarkE4HashStringTCAs regenerates the hash-map/string-compare
// validation study, reporting the hash-map L_T speedup at high frequency.
func BenchmarkE4HashStringTCAs(b *testing.B) {
	// Default operation count: the TCAs are profitable at steady state
	// (cold tables make the hash TCA a net loss; see EXPERIMENTS.md).
	cfg := experiments.DefaultE4()
	cfg.FillerCounts = []int{5, 80}
	var headline float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		headline = res.Rows[0].Result.Mode(accel.LT).SimSpeedup
	}
	b.ReportMetric(headline, "kvstore-L_T-speedup")
}

// BenchmarkE5MultiTCA regenerates the heterogeneous multi-accelerator
// study, reporting its worst model error.
func BenchmarkE5MultiTCA(b *testing.B) {
	cfg := experiments.DefaultE5()
	cfg.Calls = 60
	cfg.FillerCounts = []int{50, 800}
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst = res.MaxAbsError()
	}
	b.ReportMetric(100*worst, "max-error-%")
}

// BenchmarkAblationDrainEstimators runs the A1 drain-estimator ablation,
// reporting the NL_NT error of the harness-default estimator.
func BenchmarkAblationDrainEstimators(b *testing.B) {
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 200, FillerPerCall: 40, Prefill: 256, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	var defErr float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.MeasureWorkload(sim.HighPerfConfig(), w)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.DrainAblation(res)
		if err != nil {
			b.Fatal(err)
		}
		defErr = rows[0].NLNTError
	}
	b.ReportMetric(100*defErr, "default-NL_NT-error-%")
}

// BenchmarkAblationLoadOrdering runs the A2 LSQ-disambiguation ablation,
// reporting the IPC gain from the decoupled store AGU.
func BenchmarkAblationLoadOrdering(b *testing.B) {
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 300, FillerPerCall: 10, Prefill: 256, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		ab, err := experiments.LoadOrdering(sim.HighPerfConfig(), w)
		if err != nil {
			b.Fatal(err)
		}
		gain = ab.DecoupledIPC/ab.ConservativeIPC - 1
	}
	b.ReportMetric(100*gain, "ipc-gain-%")
}

// --- engine micro-benchmarks ---

// BenchmarkModelEvaluate measures one analytical model evaluation.
func BenchmarkModelEvaluate(b *testing.B) {
	p := core.HPCore().Apply(core.Params{
		AcceleratableFrac: 0.3, InvocationFreq: 0.003, AccelFactor: 3,
	})
	for i := 0; i < b.N; i++ {
		if _, err := p.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures out-of-order simulation throughput on the
// synthetic workload, in committed instructions and in simulated cycles
// per host second.
func BenchmarkSimulator(b *testing.B) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Units: 400, UnitLen: 25, Regions: 20, RegionLen: 60, AccelLatency: 12, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var instr uint64
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sim.New(sim.HighPerfConfig(), w.Baseline, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run(1 << 40)
		if err != nil {
			b.Fatal(err)
		}
		instr += res.Stats.Committed
		cycles += res.Stats.Cycles
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(instr)/sec/1e6, "Minstr/s")
		b.ReportMetric(float64(cycles)/sec/1e6, "Mcycles/s")
	}
}

// BenchmarkSimulatorAccel measures simulation throughput on the same
// synthetic workload's accelerated program with a 12-cycle fixed-latency
// device: the store, accelerator-hazard and NT dispatch-barrier paths
// BenchmarkSimulator's device-free baseline never reaches. The cases are
// the HP core in L_T and NL_NT and the LP core in L_T.
func BenchmarkSimulatorAccel(b *testing.B) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Units: 400, UnitLen: 25, Regions: 20, RegionLen: 60, AccelLatency: 12, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  sim.Config
		mode accel.Mode
	}{
		{"HP-L_T", sim.HighPerfConfig(), accel.LT},
		{"HP-NL_NT", sim.HighPerfConfig(), accel.NLNT},
		{"LP-L_T", sim.LowPerfConfig(), accel.LT},
	} {
		cfg := tc.cfg
		cfg.Mode = tc.mode
		b.Run(tc.name, func(b *testing.B) {
			var instr uint64
			var cycles int64
			for i := 0; i < b.N; i++ {
				c, err := sim.New(cfg, w.Accelerated, accel.NewFixedLatency(12))
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.Run(1 << 40)
				if err != nil {
					b.Fatal(err)
				}
				instr += res.Stats.Committed
				cycles += res.Stats.Cycles
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(instr)/sec/1e6, "Minstr/s")
				b.ReportMetric(float64(cycles)/sec/1e6, "Mcycles/s")
			}
		})
	}
}

// BenchmarkStaticRank measures the analytical fast-path tier ranking a
// 1000-point design space of the BenchmarkSimulator workload: profile
// the baseline and accelerated programs once (one O(N) walk each), then
// predict all four mode speedups for every machine variant. The
// headline contract (DESIGN.md, "Analytical fast-path tier") is that
// the whole ranking costs less than ONE cycle-accurate BenchmarkSimulator
// run — that ratio is what makes frontier-pruned sweeps worthwhile.
func BenchmarkStaticRank(b *testing.B) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Units: 400, UnitLen: 25, Regions: 20, RegionLen: 60, AccelLatency: 12, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// A 4-axis grid around the HP core: 5 x 8 x 5 x 5 = 1000 machines.
	base := experiments.StaticMachine(sim.HighPerfConfig())
	var machines []staticmodel.Machine
	for _, dw := range []int{1, 2, 3, 4, 6} {
		for _, rob := range []int{32, 48, 64, 96, 128, 192, 256, 384} {
			for _, alus := range []int{1, 2, 3, 4, 6} {
				for _, mem := range []int{1, 2, 3, 4, 8} {
					m := base
					m.DispatchWidth, m.IssueWidth, m.CommitWidth = dw, dw, dw
					m.ROBSize = rob
					m.IntALUs = alus
					m.MemPorts = mem
					machines = append(machines, m)
				}
			}
		}
	}
	var configs uint64
	var best float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basep, err := staticmodel.NewProfile(w.Baseline)
		if err != nil {
			b.Fatal(err)
		}
		accp, err := staticmodel.NewProfile(w.Accelerated)
		if err != nil {
			b.Fatal(err)
		}
		in := staticmodel.Input{
			Baseline: basep, Accelerated: accp,
			Acceleratable: w.Acceleratable, Invocations: w.Invocations,
			BaselineInstructions: w.BaselineInstructions,
			AccelLatency:         w.AccelLatency,
		}
		best = 0
		for _, m := range machines {
			pred, err := staticmodel.Predict(in, m)
			if err != nil {
				b.Fatal(err)
			}
			if s := pred.Mode(pred.BestMode()).Speedup; s > best {
				best = s
			}
			configs++
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(configs)/sec, "configs/s")
	}
	b.ReportMetric(best, "best-L_T-speedup")
}

// BenchmarkInterpreter measures golden-model throughput.
func BenchmarkInterpreter(b *testing.B) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Units: 400, UnitLen: 25, Regions: 20, RegionLen: 60, AccelLatency: 12, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := isa.NewInterp(w.Baseline, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := it.Run(1 << 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHierarchy measures the memory-timing model on an
// L1-resident streaming pattern.
func BenchmarkCacheHierarchy(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultHierarchy())
	now := int64(0)
	for i := 0; i < b.N; i++ {
		now = h.Access(now, uint64(i%512)*64, i%8 == 0)
	}
}
