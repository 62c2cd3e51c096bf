package main

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// simTotals accumulates the simulated work of a replay: the Stats
// counts of every variant and the post-fork share the run spans timed.
type simTotals struct {
	committed, cycles, ffCycles uint64
	forkCommitted, forkCycles   uint64
}

func (t *simTotals) add(o simTotals) {
	t.committed += o.committed
	t.cycles += o.cycles
	t.ffCycles += o.ffCycles
	t.forkCommitted += o.forkCommitted
	t.forkCycles += o.forkCycles
}

// replaySweep computes the reference Stats digest of every sweep request
// by calling the layers' exported functions directly, the
// way the scenario store computes a cache miss: build the family's
// workload once, digest each variant spec, run the warmup prefix to the
// first accelerator fetch under the warmup-canonical config, snapshot
// it, and resume each variant from the snapshot. Families run
// concurrently on `workers` goroutines.
func replaySweep(seed int64, workers int, tr *tracer) ([][sha256.Size]byte, simTotals, error) {
	variants := sweepVariants()
	refs := make([][sha256.Size]byte, sweepFamilies*len(variants))
	totals := make([]simTotals, sweepFamilies)
	errs := make([]error, sweepFamilies)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for f := 0; f < sweepFamilies; f++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(f int) {
			defer func() { <-sem; wg.Done() }()
			out := refs[f*len(variants) : (f+1)*len(variants)]
			totals[f], errs[f] = replayFamily(sweepFamily(seed, f), variants, out, tr, int64(f))
		}(f)
	}
	wg.Wait()
	var sum simTotals
	for f := range totals {
		if errs[f] != nil {
			return nil, simTotals{}, fmt.Errorf("replay family %d: %w", f, errs[f])
		}
		sum.add(totals[f])
	}
	return refs, sum, nil
}

func replayFamily(ws serve.WorkloadSpec, variants []sim.Config, out [][sha256.Size]byte, tr *tracer, req int64) (simTotals, error) {
	root := tr.begin("replay.family", 0, req)
	defer tr.end(root)

	id := tr.begin("workload.build", root, req)
	wl, err := ws.Build()
	tr.end(id)
	if err != nil {
		return simTotals{}, err
	}
	specs := make([]scenario.Spec, len(variants))
	for i, cfg := range variants {
		specs[i] = scenario.Spec{Config: cfg, Program: wl.Accelerated, NewDevice: wl.NewDevice, DeviceKey: wl.DeviceKey, MaxCycles: serve.DefaultMaxCycles}
		// Timed for scenario.digest_ms: the store digests every spec it
		// is asked for, and the first digest of a program hashes it whole.
		id := tr.begin("scenario.digest", root, req)
		specs[i].Digest()
		tr.end(id)
	}

	id = tr.begin("sim.warmup", root, req)
	warm, err := sim.New(variants[0].WarmupCanonical(), wl.Accelerated, wl.NewDevice())
	if err != nil {
		tr.end(id)
		return simTotals{}, err
	}
	paused, err := warm.RunToAccelFetch(serve.DefaultMaxCycles)
	tr.end(id)
	if err != nil || !paused {
		return simTotals{}, fmt.Errorf("warmup did not reach an accelerator fetch (paused=%v, err=%v)", paused, err)
	}
	id = tr.begin("sim.ckpt_take", root, req)
	ck, err := warm.Checkpoint()
	tr.end(id)
	if err != nil {
		return simTotals{}, err
	}

	var t simTotals
	for i, sp := range specs {
		id := tr.begin("sim.ckpt_fork", root, req)
		core, err := sim.NewFromCheckpoint(sp.Config, sp.Program, sp.NewDevice(), ck)
		tr.end(id)
		if err != nil {
			return simTotals{}, err
		}
		id = tr.begin("sim.run", root, req)
		res, err := core.Run(sp.MaxCycles)
		tr.end(id)
		if err != nil {
			return simTotals{}, err
		}
		st := res.Stats
		t.committed += st.Committed
		t.cycles += uint64(st.Cycles)
		t.ffCycles += uint64(st.FastForwardedCycles)
		t.forkCommitted += st.Committed - ck.Stats.Committed
		t.forkCycles += uint64(st.Cycles - ck.Now)
		out[i] = statsDigest(st)
	}
	return t, nil
}

// simMetrics renders the sim.*, workload.* and scenario.digest_ms
// per-layer metrics of a traced replay.
func simMetrics(spans []span, t simTotals) []metric {
	runS := total(spans, "sim.run").Seconds()
	rate := func(n uint64) float64 {
		if runS <= 0 {
			return 0
		}
		return float64(n) / runS / 1e6
	}
	ff := 0.0
	if t.cycles > 0 {
		ff = float64(t.ffCycles) / float64(t.cycles)
	}
	return []metric{
		{"sim.warmup_s", total(spans, "sim.warmup").Seconds(), "s"},
		{"sim.ckpt_take_ms", ms(total(spans, "sim.ckpt_take")), "ms"},
		{"sim.ckpt_fork_ms", ms(total(spans, "sim.ckpt_fork")), "ms"},
		{"sim.run_s", runS, "s"},
		{"sim.minstr_per_s", rate(t.forkCommitted), "Minstr/s"},
		{"sim.mcycles_per_s", rate(t.forkCycles), "Mcycles/s"},
		{"sim.committed", float64(t.committed), "count"},
		{"sim.cycles", float64(t.cycles), "count"},
		{"sim.ff_cycle_share", ff, "ratio"},
		{"workload.build_ms", ms(total(spans, "workload.build")), "ms"},
		{"scenario.digest_ms", ms(total(spans, "scenario.digest")), "ms"},
	}
}
