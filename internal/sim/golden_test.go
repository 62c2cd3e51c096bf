package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/proggen"
	"repro/internal/tcmalloc"
	"repro/internal/workload"
)

// updateGolden rewrites testdata/stats_golden.json from the current
// simulator instead of comparing against it:
//
//	go test ./internal/sim -run TestStatsGolden -update
//
// The golden pins timing across commits, so regenerate it only for a
// change that is meant to move simulated timing, and say so in review.
var updateGolden = flag.Bool("update", false, "rewrite testdata/stats_golden.json")

const goldenPath = "testdata/stats_golden.json"

// goldenCase is one program/device/config combination pinned by the golden.
type goldenCase struct {
	name string
	cfg  Config
	prog *isa.Program
	dev  func() isa.AccelDevice // nil for programs without TCA calls
}

// tinyConfig shrinks every structure to force constant back-pressure (the
// same machine TestSimEquivalenceStressSmallStructures uses).
func tinyConfig() Config {
	cfg := LowPerfConfig()
	cfg.Name = "tiny"
	cfg.ROBSize = 8
	cfg.IQSize = 4
	cfg.LSQSize = 4
	cfg.FetchWidth = 1
	cfg.DispatchWidth = 1
	cfg.IssueWidth = 1
	cfg.CommitWidth = 1
	cfg.IntALUs = 1
	cfg.MemPorts = 1
	return cfg
}

// goldenHeapDev is a heap device with every size class stocked.
func goldenHeapDev() isa.AccelDevice {
	a := tcmalloc.New(0x200000, 1<<22)
	for c := 0; c < tcmalloc.NumClasses; c++ {
		if err := a.Refill(c, 256); err != nil {
			panic(err)
		}
	}
	return accel.NewHeap(a)
}

// goldenCases enumerates the pinned matrix: random programs with a fixed
// and a heap device, the DAE and loop-nest engine devices, and two devices
// whose stores forward to younger loads (hash map, matmul), each in every
// mode on the HP, LP and tiny machines with partial speculation off and
// on; plus accelerator-free random programs on each machine.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	type program struct {
		name string
		prog *isa.Program
		dev  func() isa.AccelDevice
	}
	var progs []program
	// A small scratch region makes loads alias older stores, exercising
	// store-to-load forwarding.
	fixed := proggen.DefaultOptions()
	fixed.AccelEvery = 2
	fixed.Blocks = 20
	fixed.MemWords = 8
	for _, seed := range []int64{501, 502} {
		progs = append(progs, program{fmt.Sprintf("fixed%d", seed), proggen.Generate(seed, fixed),
			func() isa.AccelDevice { return accel.NewFixedLatency(15) }})
	}
	heap := proggen.DefaultOptions()
	heap.AccelEvery = 2
	heap.HeapAccel = true
	for _, seed := range []int64{601, 602} {
		progs = append(progs, program{fmt.Sprintf("heap%d", seed), proggen.Generate(seed, heap), goldenHeapDev})
	}
	// Invocations behind a poorly predicted branch: squashed invocations
	// and, with partial speculation, confidence-gate holds.
	progs = append(progs, program{"lowconf", partialProgram(60), goldenHeapDev})
	builds := []struct {
		name string
		make func() (*workload.Workload, error)
	}{
		{"dae", func() (*workload.Workload, error) {
			return workload.DAEStream(workload.DAEStreamConfig{
				Streams: 6, WordsPerStream: 20, FillerPerOp: 25,
				ChunkWords: 8, ComputePerChunk: 6, Startup: 15, Seed: 7,
			})
		}},
		{"loopnest", func() (*workload.Workload, error) {
			return workload.LoopNest(workload.LoopNestConfig{
				Calls: 8, FillerPerOp: 25, Trips: 4, Depth: 3,
				IterLatency: 2, ConfigLatency: 40, Seed: 8,
			})
		}},
		{"kvstore", func() (*workload.Workload, error) {
			return workload.KVStore(workload.KVStoreConfig{
				Operations: 40, FillerPerOp: 20, Buckets: 64, Keys: 32,
				LookupPct: 70, KeyWords: 4, Seed: 4,
			})
		}},
		{"matmul", func() (*workload.Workload, error) {
			return workload.MatMul(workload.MatMulConfig{N: 8, Block: 8, Tile: 4, Seed: 3})
		}},
	}
	for _, b := range builds {
		w, err := b.make()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		progs = append(progs, program{b.name, w.Accelerated, w.NewDevice})
	}

	machines := []func() Config{HighPerfConfig, LowPerfConfig, tinyConfig}
	var cases []goldenCase
	for _, p := range progs {
		for _, mk := range machines {
			for _, m := range accel.AllModes {
				for _, partial := range []bool{false, true} {
					cfg := mk()
					cfg.Mode = m
					cfg.PartialSpeculation = partial
					// Per-invocation events pin start times; one
					// machine's worth keeps the golden small.
					cfg.RecordAccelEvents = cfg.Name == "hp"
					if p.name == "lowconf" {
						cfg.Predictor = PredictorConfig{Kind: "bimodal"}
					}
					name := fmt.Sprintf("%s/%s/%s", p.name, cfg.Name, m)
					if partial {
						name += "/partial"
					}
					cases = append(cases, goldenCase{name, cfg, p.prog, p.dev})
				}
			}
		}
	}
	plain := proggen.DefaultOptions()
	plain.MemWords = 8
	for _, seed := range []int64{701, 702, 703} {
		prog := proggen.Generate(seed, plain)
		for _, mk := range machines {
			cfg := mk()
			cfg.PipeTraceLimit = 24
			cases = append(cases, goldenCase{fmt.Sprintf("plain%d/%s", seed, cfg.Name), cfg, prog, nil})
		}
	}
	return cases
}

// runGoldenCase simulates one case and returns its Stats as JSON.
func runGoldenCase(t *testing.T, c goldenCase) []byte {
	t.Helper()
	var dev isa.AccelDevice
	if c.dev != nil {
		dev = c.dev()
	}
	core, err := New(c.cfg, c.prog, dev)
	if err != nil {
		t.Fatalf("%s: sim.New: %v", c.name, err)
	}
	res, err := core.Run(200_000_000)
	if err != nil {
		t.Fatalf("%s: sim.Run: %v", c.name, err)
	}
	out, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return out
}

// TestStatsGolden pins every Stats counter of a fixed case matrix against
// a committed golden, so a change to the simulator's internals (issue
// select, wakeup, forwarding, squash) that shifts simulated timing by even
// one cycle fails here. The other differentials compare two paths of the
// same build; this one compares against an earlier build.
func TestStatsGolden(t *testing.T) {
	cases := goldenCases(t)
	got := make(map[string][]byte, len(cases))
	for _, c := range cases {
		if _, dup := got[c.name]; dup {
			t.Fatalf("duplicate golden case %s", c.name)
		}
		got[c.name] = runGoldenCase(t, c)
	}
	if *updateGolden {
		writeGolden(t, got)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d cases, matrix has %d", len(want), len(got))
	}
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: missing from golden", c.name)
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, w); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(compact.Bytes(), got[c.name]) {
			t.Errorf("%s: stats diverge from golden\nwant %s\ngot  %s", c.name, compact.Bytes(), got[c.name])
		}
	}
}

// writeGolden writes the golden as a JSON object with one case per line,
// keys sorted, so a timing change shows up as a readable line diff.
func writeGolden(t *testing.T, got map[string][]byte) {
	t.Helper()
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, n := range names {
		key, _ := json.Marshal(n)
		fmt.Fprintf(&b, "%s: %s", key, got[n])
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
