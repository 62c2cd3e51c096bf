package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/sim"
)

func TestPickTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{5000, "p99"},
		{1000, "p99"}, // rank 990, ten beyond
		{999, "p90"},  // rank 990, nine beyond
		{100, "p90"},  // rank 90, ten beyond
		{99, "p50"},   // rank 90, nine beyond
		{20, "p50"},   // rank 10, ten beyond
		{19, "p50"},   // none qualifies: the median stands in
		{1, "p50"},
	} {
		if got := pickTail(tc.n, 0.99).Label; got != tc.want {
			t.Errorf("pickTail(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
	if got := pickTail(5000, 0.90).Label; got != "p90" {
		t.Errorf("pickTail(5000, cap p90) = %s, want p90", got)
	}
	if got := pickTail(99, 0.90).Label; got != "p50" {
		t.Errorf("pickTail(99, cap p90) = %s, want p50", got)
	}
	if b := beyond(0.99, 1000); b != 10 {
		t.Errorf("beyond(p99, 1000) = %d, want 10", b)
	}
	if b := beyond(0.90, 99); b != 9 {
		t.Errorf("beyond(p90, 99) = %d, want 9", b)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := quantile(s, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile(s, 0.50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	l := summarize([]float64{5, 1, 4, 2, 3}, 0.99)
	if l.N != 5 || l.P50 != 3 || l.TailPct != "p50" || l.Tail != 3 {
		t.Errorf("summarize = %+v", l)
	}
}

func TestErrorRateCountsRefusalsAndWrongResults(t *testing.T) {
	tl := tally{Attempted: 10, OK: 6, Failed: 1, Refused: 2, Wrong: 1}
	if got := tl.failures(); got != 4 {
		t.Errorf("failures = %d, want 4", got)
	}
	if got := tl.errorRate(); got != 0.4 {
		t.Errorf("errorRate = %v, want 0.4", got)
	}
	if got := (tally{}).errorRate(); got != 0 {
		t.Errorf("errorRate of nothing = %v, want 0", got)
	}
}

// TestRunRoundClassifiesReplies drives runRound against a fake daemon
// that answers 503, 500, a wrong reply and a right one, in that order.
func TestRunRoundClassifiesReplies(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch n.Add(1) {
		case 1:
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "queue full"})
		case 2:
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "boom"})
		case 3:
			json.NewEncoder(w).Encode(serve.StaticResponse{Digest: "wrong"})
		default:
			json.NewEncoder(w).Encode(serve.StaticResponse{Digest: "right"})
		}
	}))
	defer srv.Close()

	reqs := make([]request, 4)
	for i := range reqs {
		reqs[i] = request{static: &serve.StaticRequest{}}
	}
	check := func(_ int, reply any) bool {
		r, ok := reply.(serve.StaticResponse)
		return ok && r.Digest == "right"
	}
	r := runRound(context.Background(), client.New(srv.URL), reqs, interleave(4, 1), check, nil, 0)
	want := tally{Attempted: 4, OK: 1, Failed: 1, Refused: 1, Wrong: 1}
	if r.outcome != want {
		t.Errorf("outcome = %+v, want %+v", r.outcome, want)
	}
	if got := r.outcome.errorRate(); got != 0.75 {
		t.Errorf("errorRate = %v, want 0.75", got)
	}
	if len(r.latMS) != 1 {
		t.Errorf("kept %d latencies, want only the correct reply's", len(r.latMS))
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	at := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "b", Start: at(20), End: at(40)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)}, // overhangs root
		{ID: 5, Parent: 2, Name: "grandchild", Start: at(12), End: at(18)},
		{ID: 6, Parent: 1, Name: "inside", Start: at(22), End: at(28)}, // inside a∪b
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: at(60), 2: at(14), 3: at(20), 4: at(30), 5: at(6), 6: at(6)} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded something")
	}
	tr = newTracer()
	a := tr.begin("a", 0, 7)
	b := tr.begin("b", a, 7)
	tr.end(b)
	tr.end(a)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != a || s[0].End < s[1].End || total(s, "b") != s[1].dur() {
		t.Errorf("spans = %+v", s)
	}
}

func TestStoreDeltaReportsThePhaseOnly(t *testing.T) {
	before := scenario.Metrics{RunHits: 10, RunMisses: 5, CkptForks: 2, BytesWritten: 100}
	after := scenario.Metrics{RunHits: 13, RunMisses: 6, RunDiskHits: 4, CkptForks: 9, CkptWarmups: 1, BytesRead: 50, BytesWritten: 300}
	got := map[string]float64{}
	for _, m := range storeDelta(before, after) {
		got[m.Name] = m.Value
	}
	want := map[string]float64{
		"scenario.run_hits": 3, "scenario.run_misses": 1, "scenario.run_disk_hits": 4,
		"scenario.ckpt_forks": 7, "scenario.ckpt_warmups": 1,
		"scenario.bytes_read": 50, "scenario.bytes_written": 200,
		"scenario.dedup_ratio":  7.0 / 8, // (3 hits + 4 disk) / (7 + 1 miss)
		"scenario.measure_hits": 0, "scenario.measure_misses": 0, "scenario.measure_disk_hits": 0,
		"scenario.static_hits": 0,
	}
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestServeLayerAddSums(t *testing.T) {
	a := serveLayer{requests: 64, dials: 32, queuePeak: 1, store: scenario.Metrics{RunMisses: 64, CkptForks: 64, CkptWarmups: 4, BytesWritten: 1000}}
	b := serveLayer{requests: 64, dials: 30, queuePeak: 2, store: scenario.Metrics{RunMisses: 64, CkptForks: 64, CkptWarmups: 4, BytesWritten: 1000}}
	var sum serveLayer
	sum.add(a)
	sum.add(b)
	want := scenario.Metrics{RunMisses: 128, CkptForks: 128, CkptWarmups: 8, BytesWritten: 2000}
	if sum.requests != 128 || sum.dials != 62 || sum.queuePeak != 2 || sum.store != want {
		t.Errorf("sum = %+v", sum)
	}
}

func TestMaxModelErrorOfGolden(t *testing.T) {
	golden, err := os.ReadFile("../../figures_output.txt")
	if err != nil {
		t.Skip("golden artifact not present:", err)
	}
	if got := maxModelError(golden); got != 88.0 {
		t.Errorf("max model error of the golden = %v, want 88.0", got)
	}
}

func TestPlansCoverEveryRequest(t *testing.T) {
	for _, plan := range [][][]int{interleave(7, 2), rotations(7, 2)[:1]} {
		seen := map[int]bool{}
		for _, c := range plan {
			for _, i := range c {
				seen[i] = true
			}
		}
		if len(seen) != 7 {
			t.Errorf("plan %v covers %d of 7 requests", plan, len(seen))
		}
	}
	if r := rotations(12, 2); r[1][0] != 6 {
		t.Errorf("second client starts at %d, want 6", r[1][0])
	}
}

func TestSweepVariantsAreDistinctPostWarmup(t *testing.T) {
	vs := sweepVariants()
	if len(vs) != 16 {
		t.Fatalf("%d variants, want 16", len(vs))
	}
	warm := vs[0].WarmupCanonical()
	seen := map[sim.Config]bool{}
	for _, v := range vs {
		if v.WarmupCanonical() != warm {
			t.Errorf("variant %+v leaves the warmup family", v.Mode)
		}
		seen[v] = true
	}
	if len(seen) != 16 {
		t.Errorf("only %d distinct variants", len(seen))
	}
}
