package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// figRun is one stock `figures` invocation in a child process.
type figRun struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
}

// runFigures executes the figures binary with args at GOMAXPROCS=nproc
// and reports its wall time, peak resident set and standard output. A
// non-zero exit is an error carrying the child's standard error.
func runFigures(bin string, nproc int, args ...string) (figRun, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return figRun{}, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, lastLine(errOut.String()))
	}
	r := figRun{wall: wall, stdout: out.Bytes()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

var maxErrLine = regexp.MustCompile(`max \|error\|[^:]*: ([0-9.]+)%`)

// maxModelError returns the largest "max |error|" figure in a rendered
// artifact, in percent.
func maxModelError(artifact []byte) float64 {
	worst := 0.0
	for _, m := range maxErrLine.FindAllSubmatch(artifact, -1) {
		if v, err := strconv.ParseFloat(string(m[1]), 64); err == nil && v > worst {
			worst = v
		}
	}
	return worst
}

// driverSpans are the experiments.* span names, in stock order.
var driverSpans = []string{"analytic", "fig4", "fig5", "fig6", "e3", "e4", "e5", "ablation"}

// replayFigures renders the stock `figures -fig all` artifact in-process
// by calling the experiments drivers in the order and with the configs
// cmd/figures uses, with one span around each driver call. The span
// names group the calls: analytic covers figures 2, 3, 7 (including its
// simulator spot-check), 8, E1 and E2; ablation covers A1 and A2.
func replayFigures(store *scenario.Store, parallel int, tr *tracer, parent int) (string, error) {
	var b strings.Builder
	section := func(title string) {
		fmt.Fprintf(&b, "\n%s\n%s\n\n", title, strings.Repeat("=", len(title)))
	}
	timed := func(name string, f func() error) error {
		id := tr.begin("experiments."+name, parent, 0)
		defer tr.end(id)
		return f()
	}
	maxErr := func(label string, e float64) {
		fmt.Fprintf(&b, "\nmax |error| across %s: %.1f%%\n", label, 100*e)
	}

	steps := []struct {
		span string
		run  func() error
	}{
		{"analytic", func() error {
			section("Figure 2 — speedup vs accelerator granularity (analytical)")
			res, err := experiments.Fig2(experiments.DefaultFig2())
			if err != nil {
				return err
			}
			b.WriteString(res.Render())
			section("Figure 3 — per-mode interval timelines (illustrative)")
			p := core.HPCore().Apply(core.Params{AcceleratableFrac: 0.3, InvocationFreq: 0.003, AccelFactor: 3})
			txt, err := experiments.Fig3(p)
			b.WriteString(txt)
			return err
		}},
		{"fig4", func() error {
			section("Figure 4 — model error on the synthetic microbenchmark (simulated)")
			cfg := experiments.DefaultFig4()
			cfg.Parallel, cfg.Store = parallel, store
			res, err := experiments.Fig4(cfg)
			if err != nil {
				return err
			}
			b.WriteString(res.Render())
			maxErr("sweep", res.MaxAbsError())
			return nil
		}},
		{"fig5", func() error {
			section("Figure 5 — heap manager TCA validation (simulated)")
			cfg := experiments.DefaultFig5()
			cfg.Parallel, cfg.Store = parallel, store
			res, err := experiments.Fig5(cfg)
			if err != nil {
				return err
			}
			b.WriteString(res.Render())
			maxErr("sweep", res.MaxAbsError())
			return nil
		}},
		{"fig6", func() error {
			section("Figure 6 — DGEMM TCA validation (simulated)")
			cfg := experiments.DefaultFig6()
			cfg.Parallel, cfg.Store = parallel, store
			res, err := experiments.Fig6(cfg)
			if err != nil {
				return err
			}
			b.WriteString(res.Render())
			maxErr("tiles/modes", res.MaxAbsError())
			return nil
		}},
		{"analytic", func() error {
			section("Figure 7 — design-space heatmaps (analytical)")
			res, err := experiments.Fig7(experiments.DefaultFig7())
			if err != nil {
				return err
			}
			b.WriteString(res.Render())
			svCfg := experiments.DefaultFig7Sim()
			svCfg.Parallel, svCfg.Store = parallel, store
			sv, err := experiments.Fig7Sim(svCfg)
			if err != nil {
				return err
			}
			b.WriteString("\n" + sv.Render())
			section("Figure 8 — concurrency: speedup vs coverage (analytical)")
			f8, err := experiments.Fig8(experiments.DefaultFig8())
			if err != nil {
				return err
			}
			b.WriteString(f8.Render())
			section("Extension E1 — LogCA vs the TCA model (analytical)")
			e1, err := experiments.E1(experiments.DefaultE1())
			if err != nil {
				return err
			}
			b.WriteString(e1.Render())
			section("Extension E2 — Pareto study of mode hardware costs (analytical)")
			e2, err := experiments.E2(core.HPCore(), []float64{30, 100, 300, 1e3, 1e4, 1e6})
			if err != nil {
				return err
			}
			b.WriteString(e2.Render())
			return nil
		}},
		{"e3", func() error {
			section("Extension E3 — confidence-gated partial TCA speculation (simulated)")
			cfg := experiments.DefaultE3()
			cfg.Parallel, cfg.Store = parallel, store
			res, err := experiments.E3(cfg)
			if err != nil {
				return err
			}
			b.WriteString(res.Render())
			return nil
		}},
		{"e4", func() error {
			section("Extension E4 — hash-map and string-compare TCA validation (simulated)")
			cfg := experiments.DefaultE4()
			cfg.Parallel, cfg.Store = parallel, store
			res, err := experiments.E4(cfg)
			if err != nil {
				return err
			}
			b.WriteString(res.Render())
			maxErr("study", res.MaxAbsError())
			return nil
		}},
		{"e5", func() error {
			section("Extension E5 — heterogeneous multi-TCA complex (simulated)")
			cfg := experiments.DefaultE5()
			cfg.Parallel, cfg.Store = parallel, store
			res, err := experiments.E5(cfg)
			if err != nil {
				return err
			}
			b.WriteString(res.Render())
			maxErr("study", res.MaxAbsError())
			return nil
		}},
		{"ablation", func() error {
			section("Ablations — drain estimation (A1) and LSQ disambiguation (A2)")
			w, err := workload.Heap(workload.HeapConfig{Operations: 400, FillerPerCall: 40, Prefill: 512, Seed: 11})
			if err != nil {
				return err
			}
			res, err := experiments.MeasureWorkloadStore(store, sim.HighPerfConfig(), w, parallel)
			if err != nil {
				return err
			}
			rows, err := experiments.DrainAblation(res)
			if err != nil {
				return err
			}
			b.WriteString(experiments.RenderDrainAblation(rows) + "\n")
			ab, err := experiments.LoadOrderingStore(store, sim.HighPerfConfig(), w, parallel)
			if err != nil {
				return err
			}
			b.WriteString(ab.Render())
			return nil
		}},
	}
	for _, s := range steps {
		if err := timed(s.span, s.run); err != nil {
			return "", fmt.Errorf("experiments.%s: %w", s.span, err)
		}
	}
	return b.String(), nil
}

// readGolden loads the committed stock artifact the figures workloads
// must reproduce byte for byte.
func readGolden(root string) ([]byte, error) {
	b, err := os.ReadFile(root + "/figures_output.txt")
	if err != nil {
		return nil, fmt.Errorf("golden artifact: %w", err)
	}
	return b, nil
}
