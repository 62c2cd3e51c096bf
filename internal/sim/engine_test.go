package sim

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/workload"
)

// Engine differential suite.
//
// The device-engine refactor replaced the scalar-latency timing path in
// tryStartAccel with runEngine, which executes phased occupancy schedules;
// a scalar AccelResult becomes a synthesized one-phase schedule. The suite
// here pins the refactor's central promise: for every legacy device the
// engine is bit-identical to the scalar contract. It does so by wrapping
// each standard workload's device in schedulerFor — a shim that rewrites
// every scalar result into the equivalent explicit one-phase Schedule — and
// demanding identical Stats (modulo the AccelPhases observability counter),
// registers, and memory across all seven standard workloads and every mode.

// engineShim converts a legacy scalar-contract device into an explicit
// engine device: each Invoke's (Latency, MemOps) is rewritten as a one-phase
// Schedule. Every optional contract surface is forwarded so the simulator's
// hazard logic (devUsesMemory), rollback (AccelJournal), stores
// (AccelStorer) and checkpointing (AccelSnapshotter) behave exactly as they
// would for the wrapped device.
type engineShim struct {
	dev isa.AccelDevice
}

func (s *engineShim) Name() string { return s.dev.Name() }

func (s *engineShim) Invoke(call isa.AccelCall, mem isa.WordReader) isa.AccelResult {
	res := s.dev.Invoke(call, mem)
	res.Schedule = []isa.AccelPhase{{Compute: res.Latency, MemOps: res.MemOps}}
	return res
}

// UsesProgramMemory reproduces devUsesMemory's decision for the wrapped
// device (explicit interface first, storer fallback second), so wrapping
// never changes the memory-ordering hazards the invocation waits on.
func (s *engineShim) UsesProgramMemory() bool {
	if u, ok := s.dev.(isa.AccelMemoryUser); ok {
		return u.UsesProgramMemory()
	}
	_, stores := s.dev.(isa.AccelStorer)
	return stores
}

func (s *engineShim) PendingStores() []isa.AccelStore {
	if st, ok := s.dev.(isa.AccelStorer); ok {
		return st.PendingStores()
	}
	return nil
}

func (s *engineShim) Mark() int {
	if j, ok := s.dev.(isa.AccelJournal); ok {
		return j.Mark()
	}
	return 0
}

func (s *engineShim) Rewind(mark int) {
	if j, ok := s.dev.(isa.AccelJournal); ok {
		j.Rewind(mark)
	}
}

func (s *engineShim) SnapshotState() []byte {
	if sn, ok := s.dev.(isa.AccelSnapshotter); ok {
		return sn.SnapshotState()
	}
	return nil
}

func (s *engineShim) RestoreState(data []byte) error {
	if sn, ok := s.dev.(isa.AccelSnapshotter); ok {
		return sn.RestoreState(data)
	}
	if len(data) != 0 {
		return fmt.Errorf("engineShim: unexpected state for stateless device")
	}
	return nil
}

// engineWorkloads builds the seven standard workloads the differential
// suites pin (the same set fastforward_test.go uses).
func engineWorkloads(t *testing.T) []struct {
	name string
	cfg  Config
	w    *workload.Workload
} {
	t.Helper()
	type build struct {
		name string
		cfg  func() Config
		make func() (*workload.Workload, error)
	}
	builds := []build{
		{"synthetic", HighPerfConfig, func() (*workload.Workload, error) {
			return workload.Synthetic(workload.SyntheticConfig{
				Units: 40, UnitLen: 30, Regions: 12, RegionLen: 40,
				AccelLatency: 400, Seed: 1,
			})
		}},
		{"heap", LowPerfConfig, func() (*workload.Workload, error) {
			return workload.Heap(workload.HeapConfig{
				Operations: 120, FillerPerCall: 40, Prefill: 64, Seed: 2,
			})
		}},
		{"matmul", HighPerfConfig, func() (*workload.Workload, error) {
			return workload.MatMul(workload.MatMulConfig{N: 16, Block: 8, Tile: 4, Seed: 3})
		}},
		{"kvstore", A72Config, func() (*workload.Workload, error) {
			return workload.KVStore(workload.KVStoreConfig{
				Operations: 100, FillerPerOp: 30, Buckets: 256, Keys: 64,
				LookupPct: 70, KeyWords: 4, Seed: 4,
			})
		}},
		{"regex", HighPerfConfig, func() (*workload.Workload, error) {
			return workload.RegexMatch(workload.RegexMatchConfig{
				Pattern: "ab*c.d+", Matches: 40, FillerPerOp: 30,
				Inputs: 8, MaxLen: 24, Seed: 5,
			})
		}},
		{"stringmatch", LowPerfConfig, func() (*workload.Workload, error) {
			return workload.StringMatch(workload.StringMatchConfig{
				Comparisons: 60, FillerPerOp: 30, Dictionary: 12,
				MinWords: 4, MaxWords: 10, SharedPrefix: 3, Seed: 6,
			})
		}},
		{"multitca", HighPerfConfig, func() (*workload.Workload, error) {
			cfg := workload.DefaultMultiTCA()
			cfg.Calls = 60
			return workload.MultiTCA(cfg)
		}},
	}
	out := make([]struct {
		name string
		cfg  Config
		w    *workload.Workload
	}, 0, len(builds))
	for _, bld := range builds {
		w, err := bld.make()
		if err != nil {
			t.Fatalf("%s: %v", bld.name, err)
		}
		out = append(out, struct {
			name string
			cfg  Config
			w    *workload.Workload
		}{bld.name, bld.cfg(), w})
	}
	return out
}

// runEngineCase runs one workload/mode combination, optionally through the
// engine shim.
func runEngineCase(t *testing.T, cfg Config, w *workload.Workload, shim bool) *Result {
	t.Helper()
	var dev isa.AccelDevice = w.NewDevice()
	if shim {
		dev = &engineShim{dev: dev}
	}
	core, err := New(cfg, w.Accelerated, dev)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	res, err := core.Run(2_000_000_000)
	if err != nil {
		t.Fatalf("sim.Run(shim=%v): %v", shim, err)
	}
	return res
}

// TestEngineScalarScheduleEquivalence is the engine differential suite:
// every standard workload's device, rewritten from the scalar contract into
// an explicit one-phase schedule, must produce bit-identical statistics,
// registers and memory in every mode. Only AccelPhases — the engine
// observability counter, which counts explicit-schedule phases and is
// definitionally zero on the scalar path — is excluded from the comparison.
func TestEngineScalarScheduleEquivalence(t *testing.T) {
	for _, c := range engineWorkloads(t) {
		for _, m := range accel.AllModes {
			t.Run(fmt.Sprintf("%s-%s", c.name, m), func(t *testing.T) {
				cfg := c.cfg
				cfg.Mode = m
				scalar := runEngineCase(t, cfg, c.w, false)
				phased := runEngineCase(t, cfg, c.w, true)

				if scalar.Stats.AccelPhases != 0 {
					t.Errorf("scalar run counted %d engine phases, want 0", scalar.Stats.AccelPhases)
				}
				invoked := phased.Stats.AccelCommitted + phased.Stats.AccelSquashed
				if invoked > 0 && phased.Stats.AccelPhases != invoked {
					t.Errorf("one-phase schedules over %d invocations counted %d phases",
						invoked, phased.Stats.AccelPhases)
				}
				got := phased.Stats
				got.AccelPhases = 0
				if !reflect.DeepEqual(got, scalar.Stats) {
					t.Errorf("stats diverge beyond AccelPhases:\nscalar:\n%v\nphased:\n%v",
						scalar.Stats, got)
				}
				if phased.Regs != scalar.Regs {
					t.Error("final register files diverge")
				}
				if !phased.Mem.Equal(scalar.Mem) {
					t.Error("final memory images diverge")
				}
			})
		}
	}
}

// splitPhases is a test engine device whose fixed compute latency is split
// across a configurable number of equal phases — total occupancy identical
// to a scalar device of the same latency, which TestEnginePhaseSplit pins.
type splitPhases struct {
	latency int
	phases  int
}

func (d *splitPhases) Name() string { return "split-phases" }

func (d *splitPhases) Invoke(call isa.AccelCall, _ isa.WordReader) isa.AccelResult {
	sched := make([]isa.AccelPhase, d.phases)
	per := d.latency / d.phases
	for i := range sched {
		sched[i] = isa.AccelPhase{Compute: per}
	}
	sched[0].Compute += d.latency - per*d.phases
	return isa.AccelResult{Value: call.Args[0], Schedule: sched}
}

// TestEnginePhaseSplit: memory-free compute split across N phases occupies
// exactly as long as the same compute in one scalar invocation, in every
// mode — phase boundaries alone must not cost cycles.
func TestEnginePhaseSplit(t *testing.T) {
	prog := accelProgram(10, 25)
	for _, m := range accel.AllModes {
		for _, phases := range []int{2, 7} {
			t.Run(fmt.Sprintf("%s-%dphases", m, phases), func(t *testing.T) {
				cfg := LowPerfConfig()
				cfg.Mode = m
				run := func(dev isa.AccelDevice) Stats {
					core, err := New(cfg, prog, dev)
					if err != nil {
						t.Fatal(err)
					}
					res, err := core.Run(2_000_000_000)
					if err != nil {
						t.Fatal(err)
					}
					return res.Stats
				}
				scalar := run(accel.NewFixedLatency(700))
				split := run(&splitPhases{latency: 700, phases: phases})
				if scalar.Cycles != split.Cycles {
					t.Errorf("split into %d phases took %d cycles, scalar took %d",
						phases, split.Cycles, scalar.Cycles)
				}
				if split.AccelPhases != uint64(phases)*split.AccelCommitted {
					t.Errorf("counted %d phases over %d invocations x %d",
						split.AccelPhases, split.AccelCommitted, phases)
				}
			})
		}
	}
}

// streamPhases is a test engine device that loads `chunks` bursts of
// `chunkWords` contiguous words, spending `compute` cycles per chunk, with
// or without access/execute overlap.
type streamPhases struct {
	base       uint64
	chunks     int
	chunkWords int
	compute    int
	overlap    bool

	invocations uint64
}

func (d *streamPhases) Name() string            { return "stream-phases" }
func (d *streamPhases) UsesProgramMemory() bool { return true }

// The checkpoint-transparency test snapshots mid-run, so the device's one
// counter travels through a state frame like the real devices' counters do.
func (d *streamPhases) SnapshotState() []byte {
	return binary.LittleEndian.AppendUint64(nil, d.invocations)
}

func (d *streamPhases) RestoreState(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("stream-phases: %d-byte state frame, want 8", len(data))
	}
	d.invocations = binary.LittleEndian.Uint64(data)
	return nil
}

func (d *streamPhases) Invoke(call isa.AccelCall, mem isa.WordReader) isa.AccelResult {
	d.invocations++
	var sum uint64
	sched := make([]isa.AccelPhase, d.chunks)
	addr := d.base
	for c := 0; c < d.chunks; c++ {
		ops := make([]isa.AccelMemOp, d.chunkWords)
		for w := 0; w < d.chunkWords; w++ {
			sum += mem.Load(addr)
			ops[w] = isa.AccelMemOp{Addr: addr, Size: 8}
			addr += 8
		}
		sched[c] = isa.AccelPhase{Compute: d.compute, Overlap: d.overlap, MemOps: ops}
	}
	return isa.AccelResult{Value: sum, Schedule: sched}
}

// TestEngineOverlapHidesMemoryTime: an Overlap schedule must finish no later
// than its non-overlapped twin, must record the hidden cycles, and both must
// compute the same value.
func TestEngineOverlapHidesMemoryTime(t *testing.T) {
	const base = 0x9000
	b := isa.NewBuilder()
	for w := 0; w < 64; w++ {
		b.InitWord(base+uint64(w)*8, uint64(w)*3+1)
	}
	b.MovI(isa.R(1), 7)
	b.Accel(isa.R(10), 0, isa.R(1))
	b.Halt()
	prog := b.MustBuild()

	run := func(overlap bool) *Result {
		cfg := LowPerfConfig()
		cfg.Mode = accel.NLNT
		dev := &streamPhases{base: base, chunks: 8, chunkWords: 8, compute: 40, overlap: overlap}
		core, err := New(cfg, prog, dev)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(2_000_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(false)
	overlapped := run(true)

	if overlapped.Stats.Cycles >= serial.Stats.Cycles {
		t.Errorf("overlap run took %d cycles, serial took %d — overlap hid nothing",
			overlapped.Stats.Cycles, serial.Stats.Cycles)
	}
	if overlapped.Stats.AccelOverlapCycles <= 0 {
		t.Errorf("overlap run recorded %d hidden cycles, want > 0", overlapped.Stats.AccelOverlapCycles)
	}
	if serial.Stats.AccelOverlapCycles != 0 {
		t.Errorf("serial run recorded %d hidden cycles, want 0", serial.Stats.AccelOverlapCycles)
	}
	saved := serial.Stats.Cycles - overlapped.Stats.Cycles
	if saved != overlapped.Stats.AccelOverlapCycles {
		t.Errorf("saved %d cycles but recorded %d as hidden", saved, overlapped.Stats.AccelOverlapCycles)
	}
	if overlapped.Regs != serial.Regs {
		t.Error("overlap changed the computed value")
	}
}

// TestEngineFastForwardTransparent extends the fast-forward differential
// suite to engine devices: multi-phase and overlapped schedules must be
// transparent to the event-horizon scheduler in every mode, exactly like
// scalar devices.
func TestEngineFastForwardTransparent(t *testing.T) {
	const base = 0xA000
	b := isa.NewBuilder()
	for w := 0; w < 32; w++ {
		b.InitWord(base+uint64(w)*8, uint64(w)*5+2)
	}
	b.MovI(isa.R(1), 3)
	for i := 0; i < 6; i++ {
		b.Accel(isa.R(10), 0, isa.R(1))
		b.Add(isa.R(11), isa.R(11), isa.R(10))
	}
	b.Halt()
	prog := b.MustBuild()

	devs := []struct {
		name string
		make func() isa.AccelDevice
	}{
		{"split", func() isa.AccelDevice { return &splitPhases{latency: 4000, phases: 5} }},
		{"stream", func() isa.AccelDevice {
			return &streamPhases{base: base, chunks: 4, chunkWords: 8, compute: 300, overlap: true}
		}},
	}
	for _, d := range devs {
		for _, m := range accel.AllModes {
			t.Run(fmt.Sprintf("%s-%s", d.name, m), func(t *testing.T) {
				cfg := LowPerfConfig()
				cfg.Mode = m
				assertFFTransparent(t, ffCase{cfg: cfg, prog: prog, dev: d.make})
			})
		}
	}
}

// TestEngineCheckpointTransparent: a run containing engine invocations,
// checkpointed mid-flight and resumed, must finish bit-identically to an
// uninterrupted run — engine occupancy is fully carried by TCABusyUntil and
// the snapshot's Stats.
func TestEngineCheckpointTransparent(t *testing.T) {
	const base = 0xB000
	b := isa.NewBuilder()
	for w := 0; w < 32; w++ {
		b.InitWord(base+uint64(w)*8, uint64(w)*9+4)
	}
	b.MovI(isa.R(1), 3)
	for i := 0; i < 8; i++ {
		b.Accel(isa.R(10), 0, isa.R(1))
		b.Add(isa.R(11), isa.R(11), isa.R(10))
	}
	b.Halt()
	prog := b.MustBuild()
	mkDev := func() isa.AccelDevice {
		return &streamPhases{base: base, chunks: 4, chunkWords: 8, compute: 250, overlap: true}
	}

	cfg := LowPerfConfig()
	cfg.Mode = accel.LT

	straight, err := New(cfg, prog, mkDev())
	if err != nil {
		t.Fatal(err)
	}
	want, err := straight.Run(2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}

	paused, err := New(cfg, prog, mkDev())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := paused.RunTo(2_000_000_000, want.Stats.Cycles/2); err != nil {
		t.Fatal(err)
	}
	ck, err := paused.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewFromCheckpoint(cfg, prog, mkDev(), ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("resumed stats diverge:\nresumed:\n%v\nuninterrupted:\n%v", got.Stats, want.Stats)
	}
	if got.Regs != want.Regs {
		t.Error("resumed register file diverges")
	}
	if !got.Mem.Equal(want.Mem) {
		t.Error("resumed memory image diverges")
	}
}

// BenchmarkDeviceEngine measures the engine executor on a multi-phase
// streaming schedule — the hot path every engine-device invocation takes.
func BenchmarkDeviceEngine(b *testing.B) {
	const base = 0xC000
	bd := isa.NewBuilder()
	for w := 0; w < 64; w++ {
		bd.InitWord(base+uint64(w)*8, uint64(w))
	}
	bd.MovI(isa.R(1), 3)
	for i := 0; i < 50; i++ {
		bd.Accel(isa.R(10), 0, isa.R(1))
	}
	bd.Halt()
	prog := bd.MustBuild()
	cfg := HighPerfConfig()
	cfg.Mode = accel.LT

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev := &streamPhases{base: base, chunks: 8, chunkWords: 8, compute: 30, overlap: true}
		core, err := New(cfg, prog, dev)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(2_000_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
