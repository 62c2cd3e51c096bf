package workload

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/redfa"
)

func reConfig() RegexMatchConfig {
	return RegexMatchConfig{
		Pattern: "[ab]*abb", Matches: 100, FillerPerOp: 10,
		Inputs: 20, MaxLen: 24, Seed: 6,
	}
}

func TestRegexMatchBaselineAcceleratedAgree(t *testing.T) {
	w, err := RegexMatch(reConfig())
	if err != nil {
		t.Fatal(err)
	}
	ib, err := isa.NewInterp(w.Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ib.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	ia, err := isa.NewInterp(w.Accelerated, w.NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	if err := ia.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	if ib.Reg(isa.R(reRes)) != ia.Reg(isa.R(reRes)) {
		t.Errorf("final match results differ: sw %d vs tca %d",
			ib.Reg(isa.R(reRes)), ia.Reg(isa.R(reRes)))
	}
	if ia.Stats.AccelInvocations != w.Invocations {
		t.Errorf("invocations %d, want %d", ia.Stats.AccelInvocations, w.Invocations)
	}
	// Regex matching sits at the coarse end of the fine-grained band
	// (the paper's Fig. 2 regex marker ~300 instructions).
	if g := w.Granularity(); g < 40 || g > 900 {
		t.Errorf("granularity = %v, want regex band", g)
	}
}

// Every pool input must be classified identically by the software walk,
// the device, and the Go DFA.
func TestRegexMatchSemanticsAgainstDFA(t *testing.T) {
	cfg := reConfig()
	cfg.Matches = 2
	w, err := RegexMatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dfa, err := redfa.Compile(cfg.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	mem := w.Accelerated.NewMemoryImage()
	dev := w.NewDevice()
	for i := 0; i < cfg.Inputs; i++ {
		base := uint64(reInputsBase + i*reInputSlot)
		// Recover the input symbols from the image.
		var in []byte
		for off := uint64(0); ; off += 8 {
			wv := mem.Load(base + off)
			if wv >= redfa.Terminator {
				break
			}
			in = append(in, byte(wv))
		}
		want := uint64(0)
		if dfa.Match(in) {
			want = 1
		}
		res := dev.Invoke(isa.AccelCall{Kind: 0, Args: [3]uint64{base, 0, 0}}, mem)
		if res.Value != want {
			t.Fatalf("input %d (%q): device %d, DFA %v", i, in, res.Value, dfa.Match(in))
		}
	}
}

func TestRegexMatchHasBothOutcomes(t *testing.T) {
	w, err := RegexMatch(reConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := w.NewDevice()
	ia, err := isa.NewInterp(w.Accelerated, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := ia.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	rx, ok := dev.(*accel.Regex)
	if !ok {
		t.Fatal("regex workload must use the regex TCA")
	}
	// The pool must exercise both accept and reject paths.
	if rx.Matches == 0 || rx.Matches == rx.Invocations {
		t.Errorf("one-sided outcomes: %d/%d matches", rx.Matches, rx.Invocations)
	}
	// Serial table walks mean the device consumed at least one symbol
	// per invocation on average.
	if rx.Symbols < rx.Invocations {
		t.Error("device consumed fewer symbols than invocations")
	}
}
