// Command tcabench is the repository benchmark. It runs one workload per
// process and prints, as the last line of standard output, one JSON
// object with the fields correct, attempted, failed and metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash cmd/tcabench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: figures, figures-warm, serve-hot, serve-sweep. With
// --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 a separate traced run times calls into each layer and
// reports the per-layer metrics. README.md in this directory explains
// the workloads, the metrics and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance is printed on the line before the result: what produced the
// numbers and how many samples stand behind each percentile.
type provenance struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Commit     string         `json:"commit"`
	Clients    int            `json:"clients"`
	Samples    map[string]int `json:"samples"`
	TailPct    string         `json:"tail_percentile,omitempty"`
	ErrorRate  float64        `json:"error_rate"`
	Outcomes   tally          `json:"outcomes"`
	Extra      map[string]any `json:"extra,omitempty"`
}

// bench carries one run's settings.
type bench struct {
	root    string // checkout root (holds figures_output.txt)
	figures string // built cmd/figures binary
	work    string // private scratch directory, removed at exit
	seed    int64
	seconds float64
	nproc   int
	tr      *tracer // nil unless --trace 1
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "", "figures, figures-warm, serve-hot or serve-sweep")
		seed    = flag.Int64("seed", 1, "offsets every serve workload seed (the figures workloads are the seedless stock artifact)")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		traceOn = flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
		root    = flag.String("root", ".", "repository checkout root")
		figures = flag.String("figures", "", "path to the built cmd/figures binary")
	)
	flag.Parse()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	b := &bench{root: *root, figures: *figures, seed: *seed, seconds: *seconds, nproc: nproc}
	if *traceOn == 1 {
		b.tr = newTracer()
	}
	buildDir := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tcabench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcabench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	b.work = work

	var out *outcome
	switch *name {
	case "figures":
		out, err = b.figuresCold()
	case "figures-warm":
		out, err = b.figuresWarm()
	case "serve-hot":
		out, err = b.serveHot()
	case "serve-sweep":
		out, err = b.serveSweep()
	default:
		err = fmt.Errorf("unknown workload %q", *name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcabench:", err)
		return 1
	}

	if b.tr != nil {
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "tcabench: write trace:", err)
			return 1
		}
	}

	ms := out.layer
	if b.tr == nil {
		ms = out.endToEnd()
	}
	prov := provenance{
		Workload: *name, Seed: *seed, Trace: b.tr != nil,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: nproc,
		Commit: commit(), Clients: out.clients, Samples: out.samples,
		TailPct:   out.lat.TailPct,
		ErrorRate: out.tally.errorRate(), Outcomes: out.tally, Extra: out.extra,
	}
	res := result{
		Correct:   out.tally.failures() == 0 && out.tally.Attempted > 0,
		Attempted: out.tally.Attempted,
		Failed:    out.tally.failures(),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range ms {
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "tcabench: correctness gate failed:", out.tally.failures(), "of", out.tally.Attempted)
		return 1
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// resetPeakRSS restarts the kernel's peak-resident-set mark for this
// process, so peakRSSMB reports the peak of what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident set (VmHWM) in MiB since
// start or the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
