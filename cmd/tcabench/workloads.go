package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// Set-up repetitions per run; setup_s is their median.
const (
	figuresSetupReps = 15 // an empty figures process: milliseconds each
	warmSetupReps    = 3  // a full cold fill: seconds each
	hotSetupReps     = 3
)

// Fixed-size phases of a traced run, so same-seed traced runs repeat
// their counts exactly: pairs of one untraced and one traced round.
const (
	hotTracePairs   = 100
	sweepTracePairs = 2
)

// outcome is what one workload run measured.
type outcome struct {
	clients int
	// tailCap is the highest tail percentile the workload's run length
	// always supports, so latency_tail_ms keeps one meaning across runs
	// whose sample counts differ.
	tailCap float64
	setupS  []float64     // one entry per set-up
	rounds  []float64     // wall seconds of each timed round
	active  time.Duration // sum of the timed rounds
	done    int           // correct replies in timed rounds
	latMS   []float64     // per-request latency of correct replies
	rssMB   float64
	// childRSS is each correct figures child's peak resident set.
	childRSS []float64
	tally    tally // every checked operation, set-up included
	lat      latencies
	samples  map[string]int
	extra    map[string]any
	layer    []metric // per-layer metrics (traced runs)
}

func newOutcome(clients int, tailCap float64) *outcome {
	return &outcome{clients: clients, tailCap: tailCap, samples: map[string]int{}, extra: map[string]any{}}
}

// addRound folds one timed round into the outcome.
func (o *outcome) addRound(r roundResult) {
	o.rounds = append(o.rounds, r.wall.Seconds())
	o.active += r.wall
	o.done += r.outcome.OK
	o.latMS = append(o.latMS, r.latMS...)
	o.tally.add(r.outcome)
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (o *outcome) endToEnd() []metric {
	o.lat = summarize(o.latMS, o.tailCap)
	o.samples["setup_s"] = len(o.setupS)
	o.samples["wall_s"] = len(o.rounds)
	o.samples["latency"] = o.lat.N
	if len(o.rounds) > 0 {
		r := sortedCopy(o.rounds)
		o.extra["wall_s_min"], o.extra["wall_s_max"] = r[0], r[len(r)-1]
	}
	rps := 0.0
	if o.active > 0 {
		rps = float64(o.done) / o.active.Seconds()
	}
	return []metric{
		{"setup_s", median(o.setupS), "s"},
		{"wall_s", median(o.rounds), "s"},
		{"req_per_s", rps, "1/s"},
		{"latency_p50_ms", o.lat.P50, "ms"},
		{"latency_tail_ms", o.lat.Tail, "ms"},
		{"peak_rss_mb", o.rssMB, "MB"},
	}
}

// repeat runs round until the timed phase has lasted b.seconds, at least
// once. One garbage collection first keeps set-up's garbage out of the
// timed phase; collections the rounds cause are part of their cost.
func (b *bench) repeat(round func() error) error {
	runtime.GC()
	t0 := time.Now()
	for {
		if err := round(); err != nil {
			return err
		}
		if time.Since(t0).Seconds() >= b.seconds {
			return nil
		}
	}
}

func (b *bench) figuresArgs(extra ...string) []string {
	return append([]string{"-fig", "all", "-parallel", strconv.Itoa(b.nproc)}, extra...)
}

// figuresRound runs one stock artifact in a child process and checks it
// byte for byte against the golden.
func (b *bench) figuresRound(o *outcome, golden []byte, args []string) {
	r, err := runFigures(b.figures, b.nproc, args...)
	round := roundResult{wall: r.wall, outcome: tally{Attempted: 1}}
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "tcabench:", err)
		round.outcome.Failed++
	case !bytes.Equal(r.stdout, golden):
		round.outcome.Wrong++
	default:
		round.outcome.OK++
		round.latMS = []float64{ms(r.wall)}
		o.extra["model_max_err_pct"] = maxModelError(r.stdout)
		o.childRSS = append(o.childRSS, r.rssMB)
	}
	o.addRound(round)
}

// figuresCold is the stock `figures -fig all` with its default
// in-memory store. Set-up is an empty figures process (start-up and
// store creation), which is all a cold run prepares.
func (b *bench) figuresCold() (*outcome, error) {
	golden, err := readGolden(b.root)
	if err != nil {
		return nil, err
	}
	o := newOutcome(1, 0.50)
	for i := 0; i < figuresSetupReps; i++ {
		r, err := runFigures(b.figures, b.nproc, "-fig", "none")
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, r.wall.Seconds())
	}
	if b.tr != nil {
		return o, b.traceFigures(o, golden, "")
	}
	err = b.repeat(func() error {
		b.figuresRound(o, golden, b.figuresArgs())
		return nil
	})
	o.rssMB = median(o.childRSS)
	return o, err
}

// figuresWarm reruns the stock artifact against a disk cache that
// set-up fills with a cold run, so every lookup is a disk hit.
func (b *bench) figuresWarm() (*outcome, error) {
	golden, err := readGolden(b.root)
	if err != nil {
		return nil, err
	}
	o := newOutcome(1, 0.50)
	dir := ""
	for i := 0; i < warmSetupReps; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		if dir, err = os.MkdirTemp(b.work, "cache-"); err != nil {
			return nil, err
		}
		fill := newOutcome(1, 0.50)
		b.figuresRound(fill, golden, b.figuresArgs("-cache-dir", dir))
		o.tally.add(fill.tally)
		if fill.tally.OK == 0 {
			return o, nil // the fill failed its check; the run reports it
		}
		o.setupS = append(o.setupS, fill.rounds[0])
	}
	if b.tr != nil {
		return o, b.traceFigures(o, golden, dir)
	}
	err = b.repeat(func() error {
		b.figuresRound(o, golden, b.figuresArgs("-cache-dir", dir))
		return nil
	})
	o.rssMB = median(o.childRSS)
	return o, err
}

// rssRounds is how many timed rounds the in-process peak_rss_mb covers,
// after all of set-up: a fixed amount of work, so a build that fits more
// rounds into a run does not read as using more memory.
const rssRounds = 4

// notePeak records the process's peak resident set while the first
// rssRounds timed rounds run (the mark was reset before set-up).
func (o *outcome) notePeak() error {
	if len(o.rounds) > rssRounds {
		return nil
	}
	mb, err := peakRSSMB()
	o.rssMB = mb
	return err
}

// serveHot times memory hits on a daemon whose store set-up has warmed
// with every request of the hot set. Each set-up is a fresh daemon and
// store; the last one serves the timed phase.
func (b *bench) serveHot() (*outcome, error) {
	ctx := context.Background()
	reqs := hotRequests(b.seed)
	o := newOutcome(b.nproc, 0.99)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var d *daemon
	var want []any
	for i := 0; i < hotSetupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		store, err := scenario.NewStore("")
		if err != nil {
			return nil, err
		}
		if d, err = startDaemon(store, b.nproc, b.tr != nil); err != nil {
			return nil, err
		}
		got := make([]any, len(reqs))
		r := runRound(ctx, d.newClient(nil), reqs, interleave(len(reqs), b.nproc), func(i int, reply any) bool {
			got[i] = reply
			return want == nil || reflect.DeepEqual(reply, want[i])
		}, nil, 0)
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		o.tally.add(r.outcome)
		want = got
	}
	defer d.close()

	plan := rotations(len(reqs), b.nproc)
	check := func(i int, reply any) bool { return reflect.DeepEqual(reply, want[i]) }
	if b.tr != nil {
		return o, b.traceHot(o, d, reqs, plan, check)
	}
	err := b.repeat(func() error {
		o.addRound(runRound(ctx, d.newClient(nil), reqs, plan, check, nil, 0))
		return o.notePeak()
	})
	return o, err
}

// serveSweep sweeps heap warmup families through a fresh daemon per
// round, whose store writes to its own directory, so every request is
// distinct to the daemon that serves it. A direct replay of the families
// through the simulator's API, run before the timed phase, is the
// reference every reply is checked against.
func (b *bench) serveSweep() (*outcome, error) {
	o := newOutcome(b.nproc, 0.90)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	s, err := b.newSweeper()
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		return o, b.traceSweep(o, s)
	}
	err = b.repeat(func() error {
		r, err := s.round(o, nil, nil)
		o.addRound(r)
		if err != nil {
			return err
		}
		return o.notePeak()
	})
	return o, err
}

// sweeper sends serve-sweep rounds and checks each reply's Stats digest
// against the replayed reference.
type sweeper struct {
	b      *bench
	reqs   []request
	want   [][sha256.Size]byte
	totals simTotals
}

// newSweeper replays the sweep families (traced in traced runs).
func (b *bench) newSweeper() (*sweeper, error) {
	want, totals, err := replaySweep(b.seed, b.nproc, b.tr)
	if err != nil {
		return nil, err
	}
	return &sweeper{b: b, reqs: sweepRequests(b.seed), want: want, totals: totals}, nil
}

// round starts a fresh daemon over a fresh disk store (set-up: store,
// server, listener and a first health check), runs one closed-loop
// round, and tears the daemon down. With a tracer the round is traced
// and, when sl is given, the daemon's activity lands in it.
func (s *sweeper) round(o *outcome, tr *tracer, sl *serveLayer) (roundResult, error) {
	ctx := context.Background()
	dir, err := os.MkdirTemp(s.b.work, "store-")
	if err != nil {
		return roundResult{}, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	store, err := scenario.NewStore(dir)
	if err != nil {
		return roundResult{}, err
	}
	d, err := startDaemon(store, s.b.nproc, tr != nil)
	if err != nil {
		return roundResult{}, err
	}
	if err := d.newClient(nil).Health(ctx); err != nil {
		d.close()
		return roundResult{}, err
	}
	o.setupS = append(o.setupS, time.Since(t0).Seconds())

	check := func(i int, reply any) bool {
		rr, ok := reply.(serve.RunResponse)
		return ok && statsDigest(rr.Stats) == s.want[i]
	}
	before := snapshotServe(d)
	d.tracer.Store(tr)
	r := runRound(ctx, d.newClient(tr), s.reqs, interleave(len(s.reqs), s.b.nproc), check, tr, int64(len(o.setupS))<<40)
	d.tracer.Store(nil)
	if sl != nil {
		*sl = observeServe(d, before, r.outcome.Attempted)
	}
	return r, d.close()
}

// serveLayer holds one daemon's serve-side activity over a traced phase.
type serveLayer struct {
	requests          int
	respBytes, dials  int64
	server            serve.ServerMetrics
	executed, refused int64
	queuePeak         int
	store             scenario.Metrics
}

// serveSnapshot marks the start of a traced phase on d.
type serveSnapshot struct {
	m           serve.MetricsSnapshot
	dials, resp int64
}

func snapshotServe(d *daemon) serveSnapshot {
	return serveSnapshot{m: d.srv.Metrics(), dials: d.ln.accepted.Load(), resp: d.respBytes.Load()}
}

// observeServe is d's activity since the snapshot, over `requests`
// requests. The queue peak is the pool's high watermark over the
// daemon's life.
func observeServe(d *daemon, before serveSnapshot, requests int) serveLayer {
	after := d.srv.Metrics()
	b := before.m
	return serveLayer{
		requests:  requests,
		dials:     d.ln.accepted.Load() - before.dials,
		respBytes: d.respBytes.Load() - before.resp,
		server: serve.ServerMetrics{
			Coalesced: after.Server.Coalesced - b.Server.Coalesced,
			Parked:    after.Server.Parked - b.Server.Parked,
			Rejected:  after.Server.Rejected - b.Server.Rejected,
			Errored:   after.Server.Errored - b.Server.Errored,
		},
		executed:  after.Pool.Executed - b.Pool.Executed,
		refused:   after.Pool.Rejected - b.Pool.Rejected,
		queuePeak: after.Pool.QueuePeak,
		store:     after.Store.Sub(b.Store),
	}
}

// add accumulates another daemon's phase into l. The store counters add
// as l - (0 - o), since scenario.Metrics offers only Sub.
func (l *serveLayer) add(o serveLayer) {
	l.requests += o.requests
	l.respBytes += o.respBytes
	l.dials += o.dials
	l.server.Coalesced += o.server.Coalesced
	l.server.Parked += o.server.Parked
	l.server.Rejected += o.server.Rejected
	l.server.Errored += o.server.Errored
	l.executed += o.executed
	l.refused += o.refused
	l.queuePeak = max(l.queuePeak, o.queuePeak)
	l.store = l.store.Sub(scenario.Metrics{}.Sub(o.store))
}

// metrics renders the serve.*, client.* and runner.* per-layer metrics
// from the accumulated counters and the traced request spans. A client
// request's self time is its latency minus the handler span it caused:
// transport plus client-side JSON.
func (l *serveLayer) metrics(spans []span, o *outcome) []metric {
	var handler, overhead []float64
	for _, s := range byName(spans, "serve.handler") {
		handler = append(handler, ms(s.dur()))
	}
	self := selfTimes(spans)
	for _, s := range byName(spans, "client.request") {
		overhead = append(overhead, ms(self[s.ID]))
	}
	handler, overhead = sortedCopy(handler), sortedCopy(overhead)
	o.samples["serve.handler"] = len(handler)
	o.samples["client.request"] = len(overhead)
	per := func(n int64) float64 {
		if l.requests == 0 {
			return 0
		}
		return float64(n) / float64(l.requests)
	}
	return []metric{
		{"serve.handler_p50_ms", quantile(handler, 0.50), "ms"},
		{"serve.handler_p99_ms", quantile(handler, 0.99), "ms"},
		{"serve.response_bytes_per_req", per(l.respBytes), "B"},
		{"serve.coalesced", float64(l.server.Coalesced), "count"},
		{"serve.parked", float64(l.server.Parked), "count"},
		{"serve.rejected", float64(l.server.Rejected), "count"},
		{"serve.errored", float64(l.server.Errored), "count"},
		{"client.overhead_p50_ms", quantile(overhead, 0.50), "ms"},
		{"client.dials_per_req", per(l.dials), "ratio"},
		{"runner.executed", float64(l.executed), "count"},
		{"runner.queue_peak", float64(l.queuePeak), "count"},
		{"runner.rejected", float64(l.refused), "count"},
	}
}
