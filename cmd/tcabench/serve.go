package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/sim"
	"repro/internal/workload"
)

// request is one scenariod call; exactly one of the three bodies is set.
type request struct {
	run     *serve.RunRequest
	measure *serve.MeasureRequest
	static  *serve.StaticRequest
}

// send issues r and returns the decoded reply with the timing-dependent
// Coalesced flag cleared, so replies compare by content.
func send(ctx context.Context, c *client.Client, r request) (any, error) {
	switch {
	case r.run != nil:
		resp, err := c.Run(ctx, *r.run)
		resp.Coalesced = false
		return resp, err
	case r.measure != nil:
		resp, err := c.Measure(ctx, *r.measure)
		resp.Coalesced = false
		return resp, err
	default:
		resp, err := c.Static(ctx, *r.static)
		return resp, err
	}
}

// hotRequests is the serve-hot request set: loadgen's two
// duplicate-heavy synthetic specs, its heap checkpoint-share family in
// all four modes with and without accelerator event recording (the
// recorded replies are about a hundred times larger), and one measure
// and one static request. seed offsets every workload seed.
func hotRequests(seed int64) []request {
	hp := sim.HighPerfConfig()
	var reqs []request
	synth := make([]serve.WorkloadSpec, 2)
	for k := range synth {
		cfg := workload.SyntheticConfig{Units: 2000, UnitLen: 40, Regions: 40 + 20*k, RegionLen: 60, AccelLatency: 12, Seed: seed + int64(k)}
		synth[k] = serve.WorkloadSpec{Kind: "synthetic", Synthetic: &cfg}
		reqs = append(reqs, request{run: &serve.RunRequest{Config: hp, Workload: synth[k]}})
	}
	heap := workload.HeapConfig{Operations: 600, FillerPerCall: 40, Prefill: 512, Seed: seed + 7, WarmupFiller: 30000}
	for _, record := range []bool{false, true} {
		for _, m := range accel.AllModes {
			cfg := hp
			cfg.Mode, cfg.RecordAccelEvents = m, record
			reqs = append(reqs, request{run: &serve.RunRequest{Config: cfg, Workload: serve.WorkloadSpec{Kind: "heap", Heap: &heap}}})
		}
	}
	reqs = append(reqs,
		request{measure: &serve.MeasureRequest{Config: hp, Workload: synth[0]}},
		request{static: &serve.StaticRequest{Config: hp, Workload: synth[1]}})
	return reqs
}

// sweepFamilies is the number of warmup families one serve-sweep round
// submits; each contributes len(sweepVariants()) distinct requests.
const sweepFamilies = 4

// sweepFamily is family f of a sweep: a heap workload behind a long
// scalar warmup, one seed per family.
func sweepFamily(seed int64, f int) serve.WorkloadSpec {
	heap := workload.HeapConfig{Operations: 600, FillerPerCall: 40, Prefill: 512, Seed: seed + 1000 + int64(f), WarmupFiller: 30000}
	return serve.WorkloadSpec{Kind: "heap", Heap: &heap}
}

// sweepVariants are the 16 post-warmup configs of every family: four
// modes × partial speculation off/on × event recording off/on.
func sweepVariants() []sim.Config {
	var out []sim.Config
	for _, m := range accel.AllModes {
		for _, partial := range []bool{false, true} {
			for _, record := range []bool{false, true} {
				cfg := sim.HighPerfConfig()
				cfg.Mode, cfg.PartialSpeculation, cfg.RecordAccelEvents = m, partial, record
				out = append(out, cfg)
			}
		}
	}
	return out
}

// sweepRequests lists a sweep round's requests family by family.
func sweepRequests(seed int64) []request {
	var reqs []request
	for f := 0; f < sweepFamilies; f++ {
		ws := sweepFamily(seed, f)
		for _, cfg := range sweepVariants() {
			reqs = append(reqs, request{run: &serve.RunRequest{Config: cfg, Workload: ws}})
		}
	}
	return reqs
}

// statsDigest fingerprints a Stats by its JSON encoding, the form the
// daemon sends; a reply and its replayed reference must match exactly.
func statsDigest(st sim.Stats) [sha256.Size]byte {
	b, err := json.Marshal(st)
	if err != nil {
		// Unreachable for a Stats value; a zero digest never matches.
		return [sha256.Size]byte{}
	}
	return sha256.Sum256(b)
}

// countingListener counts the connections the daemon accepts, so the
// benchmark sees how often the client dials.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// daemon is an in-process scenariod on a loopback listener the
// benchmark owns.
type daemon struct {
	srv       *serve.Server
	hs        *http.Server
	ln        *countingListener
	url       string
	served    chan error
	respBytes atomic.Int64
	// tracer, when set, makes the wrapped handler record spans.
	tracer atomic.Pointer[tracer]
}

// startDaemon serves a fresh serve.Server over store. With wrap the
// handler is wrapped so that, while d.tracer is set, it records a
// serve.handler span per request and counts response bytes; untraced
// runs serve the bare handler.
func startDaemon(store *scenario.Store, workers int, wrap bool) (*daemon, error) {
	srv, err := serve.New(serve.Options{Store: store, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, ln: &countingListener{Listener: ln}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	h := srv.Handler()
	if wrap {
		h = d.traced(h)
	}
	d.hs = &http.Server{Handler: h}
	go func() { d.served <- d.hs.Serve(d.ln) }()
	return d, nil
}

// close stops the listener, waits for handlers and the serve loop to
// finish, then drains the worker pool.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Close()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	return err
}

// spanHeader carries "spanID:requestID" from the client's request span
// to the handler span it causes.
const spanHeader = "X-Tcabench-Span"

type spanKey struct{}

type spanRef struct {
	id  int
	req int64
}

// spanTransport stamps the caller's span into the request header.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d:%d", ref.id, ref.req))
	}
	return t.base.RoundTrip(r)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (d *daemon) traced(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := d.tracer.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, req := 0, int64(0)
		if a, b, ok := strings.Cut(r.Header.Get(spanHeader), ":"); ok {
			parent, _ = strconv.Atoi(a)
			req, _ = strconv.ParseInt(b, 10, 64)
		}
		id := tr.begin("serve.handler", parent, req)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		tr.end(id)
		d.respBytes.Add(cw.n)
	})
}

// newClient returns the stock typed client for the daemon; traced runs
// wrap the default transport so handler spans find their parents.
func (d *daemon) newClient(tr *tracer) *client.Client {
	c := client.New(d.url)
	if tr != nil {
		c.HTTP = &http.Client{Transport: spanTransport{base: http.DefaultTransport}}
	}
	return c
}

// roundResult is one closed-loop round's outcome.
type roundResult struct {
	wall    time.Duration
	latMS   []float64
	outcome tally
}

// runRound drives a closed loop: client goroutine c sends plan[c] in
// order, each request only after the previous reply, and check judges
// every reply. Failed, refused (HTTP 503) and wrong replies all count
// against the round; latencies are kept for correct replies only.
func runRound(ctx context.Context, c *client.Client, reqs []request, plan [][]int, check func(i int, reply any) bool, tr *tracer, reqBase int64) roundResult {
	lat := make([][]float64, len(plan))
	tallies := make([]tally, len(plan))
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := range plan {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for k, i := range plan[ci] {
				req := reqBase + int64(ci)<<32 + int64(k)
				id := tr.begin("client.request", 0, req)
				rctx := ctx
				if tr != nil {
					rctx = context.WithValue(ctx, spanKey{}, spanRef{id: id, req: req})
				}
				start := time.Now()
				reply, err := send(rctx, c, reqs[i])
				elapsed := time.Since(start)
				tr.end(id)
				t := &tallies[ci]
				t.Attempted++
				switch {
				case client.IsQueueFull(err):
					t.Refused++
				case err != nil:
					t.Failed++
				case !check(i, reply):
					t.Wrong++
				default:
					t.OK++
					lat[ci] = append(lat[ci], ms(elapsed))
				}
			}
		}(ci)
	}
	wg.Wait()
	r := roundResult{wall: time.Since(t0)}
	for ci := range plan {
		r.latMS = append(r.latMS, lat[ci]...)
		r.outcome.add(tallies[ci])
	}
	return r
}

// interleave splits n requests over the clients round-robin (the
// loadgen split): client c gets requests c, c+clients, ...
func interleave(n, clients int) [][]int {
	plan := make([][]int, clients)
	for i := 0; i < n; i++ {
		plan[i%clients] = append(plan[i%clients], i)
	}
	return plan
}

// rotations gives every client the whole set, each starting at a
// different offset so the clients do not ask for the same spec at once.
func rotations(n, clients int) [][]int {
	plan := make([][]int, clients)
	for c := range plan {
		for k := 0; k < n; k++ {
			plan[c] = append(plan[c], (k+c*n/clients)%n)
		}
	}
	return plan
}
