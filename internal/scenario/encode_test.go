package scenario

import (
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/sim"
)

// goldenProgram is a tiny fixed instruction stream with one init word —
// small enough that the golden digests below are cheap to regenerate,
// rich enough to exercise every encoded program field.
func goldenProgram(t testing.TB) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	b.MovI(isa.R(1), 5)
	b.MovI(isa.R(2), 7)
	b.Add(isa.R(3), isa.R(1), isa.R(2))
	b.MovI(isa.R(4), 0x1000)
	b.Load(isa.R(5), isa.R(4), 0)
	b.Add(isa.R(3), isa.R(3), isa.R(5))
	b.InitWord(0x1000, 42)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenDigests pins the canonical encoding for the stock core
// configurations across all four TCA modes. A failure here means the
// encoding changed — field set, order, width, or canonicalization rule.
// That is only acceptable together with a SchemeVersion bump (so stale
// disk blobs miss instead of serving wrong bytes); bump it, then
// regenerate these constants from the failure output.
func TestGoldenDigests(t *testing.T) {
	golden := []struct {
		core string
		mode accel.Mode
		want string
	}{
		{"hp", accel.LT, "c499acfa3996db8de71fa94d4cb69dfe271377b1d15c7ea3967f70ef70cac7ee"},
		{"hp", accel.NLT, "8a7c72e1be20b81cb578ff6c21b195379524f7487439a190f222afb7604d3fbc"},
		{"hp", accel.LNT, "79678b67c03abc8974b8c014d047920c56df94ae7aa71f1a0ed0499e30e45af9"},
		{"hp", accel.NLNT, "7ba4c5ce072220466903334809e5cce5cd7c4946d451766219aaadaf536bea75"},
		{"lp", accel.LT, "e0a711323eef7ccb0db455d8832e5d4ced838fc64d5b01efca89cf12212cc1f1"},
		{"lp", accel.NLT, "92dfba3209012571c52275d6cc198e811df9d4cb8609d1ad13505947bb3645bc"},
		{"lp", accel.LNT, "3016583ed642d1f53eebe199c0169dbb4ee5cdefdd37125cd11f9c859bc87205"},
		{"lp", accel.NLNT, "fddb03841181e8814c57e61d0b4da1a097d7cf95b32a5d8b0463b87e316c105f"},
	}
	prog := goldenProgram(t)
	for _, g := range golden {
		cfg := sim.HighPerfConfig()
		if g.core == "lp" {
			cfg = sim.LowPerfConfig()
		}
		cfg.Mode = g.mode
		spec := Spec{Config: cfg, Program: prog, MaxCycles: 100000}
		if got := spec.Digest().String(); got != g.want {
			t.Errorf("%s/%s: digest %s, want %s", g.core, g.mode, got, g.want)
		}
	}
}

// TestDigestIgnoresNeutralFields: fields erased by canonicalization —
// labels for humans, and NoFastForward, which is bit-identical by the
// fast-forward contract — must not move the digest.
func TestDigestIgnoresNeutralFields(t *testing.T) {
	prog := goldenProgram(t)
	base := Spec{Config: sim.HighPerfConfig(), Program: prog, MaxCycles: 100000}
	want := base.Digest()

	mut := base
	mut.Config.Name = "renamed"
	mut.Config.NoFastForward = true
	mut.Config.Memory.L1I.Name = "icache"
	mut.Config.Memory.L1D.Name = "dcache"
	mut.Config.Memory.L2.Name = "llc"
	if got := mut.Digest(); got != want {
		t.Errorf("neutral-field mutation moved the digest: %s != %s", got, want)
	}

	// Implicit predictor defaults and their explicit spellings are the
	// same machine, so they must be the same digest.
	imp := base
	imp.Config.Predictor.Kind = ""
	imp.Config.Predictor.TableBits = 0
	imp.Config.Predictor.HistBits = 0
	exp := base
	exp.Config.Predictor.Kind = "gshare"
	exp.Config.Predictor.TableBits = 12
	exp.Config.Predictor.HistBits = 8
	if imp.Digest() != exp.Digest() {
		t.Error("implicit and explicit predictor defaults digest differently")
	}
}

// TestDigestSensitivity: every semantic field must move the digest.
func TestDigestSensitivity(t *testing.T) {
	prog := goldenProgram(t)
	base := Spec{Config: sim.HighPerfConfig(), Program: prog, MaxCycles: 100000}
	want := base.Digest()

	muts := map[string]func(*Spec){
		"rob-size":        func(s *Spec) { s.Config.ROBSize++ },
		"mode":            func(s *Spec) { s.Config.Mode = accel.NLNT },
		"partial-spec":    func(s *Spec) { s.Config.PartialSpeculation = true },
		"load-ordering":   func(s *Spec) { s.Config.ConservativeLoadOrdering = true },
		"predictor":       func(s *Spec) { s.Config.Predictor.Kind = "bimodal" },
		"l1d-size":        func(s *Spec) { s.Config.Memory.L1D.SizeBytes *= 2 },
		"dram-latency":    func(s *Spec) { s.Config.Memory.DRAM.Latency++ },
		"record-events":   func(s *Spec) { s.Config.RecordAccelEvents = true },
		"pipetrace-limit": func(s *Spec) { s.Config.PipeTraceLimit = 10 },
		"max-cycles":      func(s *Spec) { s.MaxCycles++ },
		"device":          func(s *Spec) { s.NewDevice = func() isa.AccelDevice { return nil }; s.DeviceKey = "k" },
	}
	for name, mutate := range muts {
		s := base
		mutate(&s)
		if s.Digest() == want {
			t.Errorf("%s: mutation did not move the digest", name)
		}
	}

	// Program identity: code and init words both count.
	b := isa.NewBuilder()
	b.Nop()
	b.Halt()
	other, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := base
	s.Program = other
	if s.Digest() == want {
		t.Error("program change did not move the digest")
	}

	// Device keys distinguish otherwise-identical specs.
	a, c := base, base
	a.NewDevice = func() isa.AccelDevice { return nil }
	c.NewDevice = a.NewDevice
	a.DeviceKey, c.DeviceKey = "fixed:lat=1", "fixed:lat=2"
	if a.Digest() == c.Digest() {
		t.Error("device key change did not move the digest")
	}
}

// TestDigestPanicsOnUncacheable: a device without a canonical key has
// no identity; hashing it anyway would risk cross-device sharing.
func TestDigestPanicsOnUncacheable(t *testing.T) {
	spec := Spec{
		Config:    sim.HighPerfConfig(),
		Program:   goldenProgram(t),
		NewDevice: func() isa.AccelDevice { return nil },
		MaxCycles: 1,
	}
	if spec.Cacheable() {
		t.Fatal("device without key should not be cacheable")
	}
	defer func() {
		if recover() == nil {
			t.Error("Digest on uncacheable spec did not panic")
		}
	}()
	spec.Digest()
}

// TestDescribe smoke-checks the -dump-scenario rendering: it must show
// the digest and the canonical (not the spelled) predictor.
func TestDescribe(t *testing.T) {
	spec := Spec{Config: sim.HighPerfConfig(), Program: goldenProgram(t), MaxCycles: 100000}
	var sb strings.Builder
	spec.Describe(&sb)
	out := sb.String()
	if !strings.Contains(out, spec.Digest().String()) {
		t.Errorf("Describe output missing digest:\n%s", out)
	}
	if !strings.Contains(out, "gshare") {
		t.Errorf("Describe output missing canonical predictor:\n%s", out)
	}

	spec.NewDevice = func() isa.AccelDevice { return nil }
	sb.Reset()
	spec.Describe(&sb)
	if !strings.Contains(sb.String(), "uncacheable") {
		t.Errorf("Describe of uncacheable spec should say so:\n%s", sb.String())
	}
}
