package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/scenario"
)

// A traced run (--trace 1) reports every per-layer metric whatever the
// workload, so each traced run replays every layer once:
//
//   - experiments.*: the stock figure drivers in-process, against the
//     workload's figures store (the filled disk cache for figures-warm,
//     a cold memory store otherwise);
//   - sim.*, workload.build_ms, scenario.digest_ms: the serve-sweep specs
//     through the simulator's exported API;
//   - serve.*, client.*, runner.*: the workload's own traffic for the
//     serve workloads, one serve-sweep round for the figures workloads;
//   - scenario.* counters: the workload's own store over its traced
//     phase.
//
// The workload's own phase runs twice, untraced and then traced, and
// trace.overhead_pct compares the two wall times.

// replayArtifact renders the stock artifact in-process over a fresh
// store on cacheDir ("" = memory), checks it against the golden, and
// returns its wall time and the store's activity.
func (b *bench) replayArtifact(o *outcome, golden []byte, cacheDir string, tr *tracer) (time.Duration, []metric, error) {
	store, err := scenario.NewStore(cacheDir)
	if err != nil {
		return 0, nil, err
	}
	runtime.GC()
	before := store.Metrics()
	t0 := time.Now()
	root := tr.begin("figures.replay", 0, 0)
	out, err := replayFigures(store, b.nproc, tr, root)
	tr.end(root)
	wall := time.Since(t0)
	t := tally{Attempted: 1}
	switch {
	case err != nil:
		return 0, nil, err
	case out != string(golden):
		t.Wrong++
	default:
		t.OK++
	}
	o.tally.add(t)
	return wall, storeDelta(before, store.Metrics()), nil
}

func experimentsMetrics(spans []span) []metric {
	var out []metric
	for _, name := range driverSpans {
		out = append(out, metric{"experiments." + name + "_s", total(spans, "experiments."+name).Seconds(), "s"})
	}
	return out
}

// tracedSweepRound replays the sweep families traced (sim.*) and sends
// one traced sweep round (serve.*, client.*, runner.*); the figures
// workloads use it for the layers their own work never reaches.
func (b *bench) tracedSweepRound(o *outcome) ([]metric, error) {
	s, err := b.newSweeper()
	if err != nil {
		return nil, err
	}
	var sl serveLayer
	r, err := s.round(o, b.tr, &sl)
	if err != nil {
		return nil, err
	}
	o.tally.add(r.outcome)
	spans := b.tr.snapshot()
	return append(simMetrics(spans, s.totals), sl.metrics(spans, o)...), nil
}

// overhead reports traced against untraced wall time of the same work.
func overhead(o *outcome, untraced, traced time.Duration) metric {
	o.extra["untraced_wall_s"] = untraced.Seconds()
	o.extra["traced_wall_s"] = traced.Seconds()
	pct := 0.0
	if untraced > 0 {
		pct = 100 * (traced.Seconds()/untraced.Seconds() - 1)
	}
	return metric{"trace.overhead_pct", pct, "%"}
}

// traceFigures is the traced run of both figures workloads: the
// artifact is rendered in-process over fresh stores on cacheDir,
// untraced, traced, untraced; the two untraced renderings bracket the
// traced one so warm-up and drift cancel out of the overhead.
func (b *bench) traceFigures(o *outcome, golden []byte, cacheDir string) error {
	before, _, err := b.replayArtifact(o, golden, cacheDir, nil)
	if err != nil {
		return err
	}
	traced, storeM, err := b.replayArtifact(o, golden, cacheDir, b.tr)
	if err != nil {
		return err
	}
	after, _, err := b.replayArtifact(o, golden, cacheDir, nil)
	if err != nil {
		return err
	}
	rest, err := b.tracedSweepRound(o)
	if err != nil {
		return err
	}
	o.layer = append(append(append(experimentsMetrics(b.tr.snapshot()), storeM...), rest...), overhead(o, (before+after)/2, traced))
	return nil
}

// traceHot alternates untraced and traced rounds on the same warm
// daemon, hotTracePairs of each, so drift cancels out of the overhead.
// The serve-side counters cover the whole alternating phase; handler
// and client spans come from the traced rounds.
func (b *bench) traceHot(o *outcome, d *daemon, reqs []request, plan [][]int, check func(int, any) bool) error {
	ctx := context.Background()
	var untraced, traced time.Duration
	plain, withSpans := d.newClient(nil), d.newClient(b.tr)
	runtime.GC()
	before := snapshotServe(d)
	attempted := 0
	for i := 0; i < hotTracePairs; i++ {
		r := runRound(ctx, plain, reqs, plan, check, nil, 0)
		untraced += r.wall
		attempted += r.outcome.Attempted
		o.tally.add(r.outcome)

		d.tracer.Store(b.tr)
		r = runRound(ctx, withSpans, reqs, plan, check, b.tr, int64(i+1)<<40)
		d.tracer.Store(nil)
		traced += r.wall
		attempted += r.outcome.Attempted
		o.tally.add(r.outcome)
	}
	sl := observeServe(d, before, attempted)
	serve := sl.metrics(b.tr.snapshot(), o)

	// The sim layer: the same replay the sweep workload checks against.
	_, totals, err := replaySweep(b.seed, b.nproc, b.tr)
	if err != nil {
		return err
	}
	return b.finishServeTrace(o, sl, totals, serve, overhead(o, untraced, traced))
}

// traceSweep alternates untraced and traced rounds, sweepTracePairs of
// each, every round on its own fresh daemon; the reference replay
// already ran traced.
func (b *bench) traceSweep(o *outcome, s *sweeper) error {
	var untraced, traced time.Duration
	var sl serveLayer
	for i := 0; i < sweepTracePairs; i++ {
		runtime.GC()
		r, err := s.round(o, nil, nil)
		if err != nil {
			return err
		}
		untraced += r.wall
		o.tally.add(r.outcome)

		runtime.GC()
		var one serveLayer
		if r, err = s.round(o, b.tr, &one); err != nil {
			return err
		}
		traced += r.wall
		o.tally.add(r.outcome)
		sl.add(one)
	}
	serve := sl.metrics(b.tr.snapshot(), o)
	return b.finishServeTrace(o, sl, s.totals, serve, overhead(o, untraced, traced))
}

// finishServeTrace renders the cold artifact traced (the serve
// workloads never call the figure drivers themselves) and assembles the
// per-layer metrics of a serve workload.
func (b *bench) finishServeTrace(o *outcome, sl serveLayer, totals simTotals, serve []metric, over metric) error {
	golden, err := readGolden(b.root)
	if err != nil {
		return err
	}
	if _, _, err := b.replayArtifact(o, golden, "", b.tr); err != nil {
		return fmt.Errorf("experiments replay: %w", err)
	}
	spans := b.tr.snapshot()
	o.layer = append(append(append(append(experimentsMetrics(spans),
		storeDelta(scenario.Metrics{}, sl.store)...),
		simMetrics(spans, totals)...),
		serve...),
		over)
	return nil
}
