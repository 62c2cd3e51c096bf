package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// postRun submits a run request and decodes the status plus the error
// body (empty for 2xx replies).
func postRun(t *testing.T, url string, req RunRequest) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("non-2xx reply without ErrorResponse body: %v", err)
	}
	return resp.StatusCode, er.Error
}

// wireKinds is every workload kind WorkloadSpec.Build accepts.
var wireKinds = []string{
	"synthetic", "heap", "matmul", "kvstore",
	"stringmatch", "regexmatch", "multitca",
	"daestream", "loopnest",
}

// TestWireKindsBuildValidPrograms: every generator behind a wire kind,
// at its test config and (synthetic, heap) at the load generator's
// sizes, returns programs that pass Program.Validate. Workload.Validate
// and the daemon's request checks are structural and rely on this: the
// programs a request names are valid because isa.Builder.Build validated
// them when it made them.
func TestWireKindsBuildValidPrograms(t *testing.T) {
	multi := workload.DefaultMultiTCA()
	specs := []WorkloadSpec{
		{Kind: "synthetic", Synthetic: &workload.SyntheticConfig{
			Units: 50, UnitLen: 20, Regions: 10, RegionLen: 30, AccelLatency: 12, Seed: 1}},
		{Kind: "synthetic", Synthetic: &workload.SyntheticConfig{
			Units: 2000, UnitLen: 40, Regions: 40, RegionLen: 60, AccelLatency: 12, Seed: 1}},
		{Kind: "heap", Heap: &workload.HeapConfig{Operations: 40, FillerPerCall: 5, Prefill: 64, Seed: 3}},
		{Kind: "heap", Heap: &workload.HeapConfig{
			Operations: 600, FillerPerCall: 40, Prefill: 512, Seed: 7, WarmupFiller: 30000}},
		{Kind: "matmul", MatMul: &workload.MatMulConfig{N: 16, Block: 8, Tile: 4, Seed: 2}},
		{Kind: "kvstore", KVStore: &workload.KVStoreConfig{
			Operations: 150, FillerPerOp: 15, Buckets: 256, Keys: 100, LookupPct: 70, Seed: 5}},
		{Kind: "stringmatch", StringMatch: &workload.StringMatchConfig{
			Comparisons: 120, FillerPerOp: 10, Dictionary: 24, MinWords: 3, MaxWords: 20, SharedPrefix: 2, Seed: 8}},
		{Kind: "regexmatch", RegexMatch: &workload.RegexMatchConfig{
			Pattern: "[ab]*abb", Matches: 100, FillerPerOp: 10, Inputs: 20, MaxLen: 24, Seed: 6}},
		{Kind: "multitca", MultiTCA: &multi},
		{Kind: "daestream", DAEStream: &workload.DAEStreamConfig{
			Streams: 12, WordsPerStream: 20, FillerPerOp: 25, ChunkWords: 8, ComputePerChunk: 6, Startup: 15, Seed: 7}},
		{Kind: "loopnest", LoopNest: &workload.LoopNestConfig{
			Calls: 15, FillerPerOp: 25, Trips: 4, Depth: 3, IterLatency: 2, ConfigLatency: 40, Seed: 8}},
	}
	covered := make(map[string]bool)
	for _, spec := range specs {
		covered[spec.Kind] = true
		w, err := spec.Build()
		if err != nil {
			t.Errorf("%s: %v", spec.Kind, err)
			continue
		}
		if err := w.Baseline.Validate(); err != nil {
			t.Errorf("%s baseline: %v", spec.Kind, err)
		}
		if err := w.Accelerated.Validate(); err != nil {
			t.Errorf("%s accelerated: %v", spec.Kind, err)
		}
	}
	for _, kind := range wireKinds {
		if !covered[kind] {
			t.Errorf("kind %q has no generator config here", kind)
		}
	}
}

// TestWireKindConfigRequired: every wire kind names exactly one config
// field; a spec that selects a kind but omits its config is rejected
// with 400 and an error naming the kind, before any scheduling.
func TestWireKindConfigRequired(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, kind := range wireKinds {
		code, msg := postRun(t, ts.URL, RunRequest{
			Config:   sim.HighPerfConfig(),
			Workload: WorkloadSpec{Kind: kind},
		})
		if code != http.StatusBadRequest {
			t.Errorf("kind %q without config: status %d, want 400", kind, code)
		}
		if want := fmt.Sprintf("workload kind %q without config", kind); !strings.Contains(msg, want) {
			t.Errorf("kind %q error %q does not name the missing config (%q)", kind, msg, want)
		}
	}

	code, msg := postRun(t, ts.URL, RunRequest{
		Config:   sim.HighPerfConfig(),
		Workload: WorkloadSpec{Kind: "warp-drive"},
	})
	if code != http.StatusBadRequest || !strings.Contains(msg, `unknown workload kind "warp-drive"`) {
		t.Errorf("unknown kind: status %d, error %q", code, msg)
	}
	if s.pool.Metrics().Submitted != 0 {
		t.Error("rejected specs reached the pool")
	}
}

// TestWireMalformedDeviceConfig: a device-family spec whose config
// fails its own validation is rejected with 400 and the generator's
// named-field error, not a panic or a silent default.
func TestWireMalformedDeviceConfig(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		spec WorkloadSpec
		want string
	}{
		{
			"dae-burst-too-wide",
			WorkloadSpec{Kind: "daestream", DAEStream: &workload.DAEStreamConfig{
				Streams: 2, WordsPerStream: 4, FillerPerOp: 10,
				ChunkWords: 9, ComputePerChunk: 2, Seed: 1,
			}},
			"chunk of 9 words exceeds one 64B burst",
		},
		{
			"loopnest-zero-depth",
			WorkloadSpec{Kind: "loopnest", LoopNest: &workload.LoopNestConfig{
				Calls: 2, FillerPerOp: 10, Trips: 4, Depth: 0,
				IterLatency: 1, Seed: 1,
			}},
			"loopnest needs trips/depth >= 1",
		},
	}
	for _, c := range cases {
		code, msg := postRun(t, ts.URL, RunRequest{Config: sim.HighPerfConfig(), Workload: c.spec})
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		}
		if !strings.Contains(msg, c.want) {
			t.Errorf("%s: error %q missing %q", c.name, msg, c.want)
		}
	}
}

// TestWireDeviceFamiliesServed: the two engine-contract families round
// trip through the wire — the daemon regenerates the workload from the
// spec, simulates it with its device, and returns cacheable stats.
func TestWireDeviceFamiliesServed(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := []WorkloadSpec{
		{Kind: "daestream", DAEStream: &workload.DAEStreamConfig{
			Streams: 3, WordsPerStream: 8, FillerPerOp: 10,
			ChunkWords: 4, ComputePerChunk: 2, Startup: 10, Seed: 5,
		}},
		{Kind: "loopnest", LoopNest: &workload.LoopNestConfig{
			Calls: 3, FillerPerOp: 10, Trips: 3, Depth: 2,
			IterLatency: 2, ConfigLatency: 20, Seed: 6,
		}},
	}
	for _, spec := range specs {
		body, err := json.Marshal(RunRequest{Config: sim.HighPerfConfig(), Workload: spec})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rr RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", spec.Kind, resp.StatusCode)
		}
		if rr.Stats.AccelCommitted != 3 {
			t.Errorf("%s: %d accelerator commits, want 3", spec.Kind, rr.Stats.AccelCommitted)
		}
		if rr.Stats.AccelPhases == 0 {
			t.Errorf("%s: engine executed no schedule phases", spec.Kind)
		}
		if rr.Digest == "" {
			t.Errorf("%s: run not cacheable (empty digest)", spec.Kind)
		}
	}
}
