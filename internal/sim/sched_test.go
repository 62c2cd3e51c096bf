package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/proggen"
	"repro/internal/workload"
)

// operandRef names source src of the entry with sequence number seq.
type operandRef struct {
	seq uint64
	src int
}

// schedMismatch recomputes the issue scheduler's derived state (sched.go)
// from the ROB slabs, independently of enroll, and describes the first
// difference from what the core maintained incrementally ("" when none).
// The ready set is read out as the age-ordered sequence list of the
// resident entries whose bits are set, and no bit may be set on a free
// slot. Each entry's cached flags must agree with its instruction.
func schedMismatch(c *Core) string {
	partial := c.cfg.PartialSpeculation && c.cfg.Mode.Leading()
	var ready, writers []uint64
	wm := [numHazards]uint64{noSeq, noSeq, noSeq, noSeq}
	cons := make(map[int][]operandRef) // producer slot -> operands, oldest first
	for i := 0; i < c.rob.len(); i++ {
		h, e := c.rob.hotAt(i), c.rob.at(i)
		store := h.op.IsStore()
		if got, want := h.fl&^flSrcs, instrFlags(e.in); got != want {
			return fmt.Sprintf("seq %d (%s) flags %08b, want %08b", h.seq, e.in, got, want)
		}
		waiting := h.state == sWaiting
		if waiting && (h.pendMask == 0 || store && h.pendMask&1 == 0 && !e.addrKnown) {
			ready = append(ready, h.seq)
		}
		if store || h.op == isa.OpAccel {
			writers = append(writers, h.seq)
		}
		members := [numHazards]bool{
			hzStore:     waiting && store,
			hzStoreAddr: waiting && store && !e.addrKnown,
			hzAccel:     waiting && h.op == isa.OpAccel,
			hzLowConf:   partial && h.op.IsCondBranch() && h.state != sDone && !e.predConfident,
		}
		for k, m := range members {
			if m && wm[k] == noSeq {
				wm[k] = h.seq
			}
		}
		for s := range e.srcs {
			if h.pendMask&(1<<uint(s)) == 0 {
				continue
			}
			pi := c.rob.indexOf(e.srcs[s].producer)
			if pi < 0 || pi >= i {
				return fmt.Sprintf("seq %d source %d waits on seq %d, not an older resident", h.seq, s, e.srcs[s].producer)
			}
			slot := c.rob.slot(pi)
			cons[slot] = append(cons[slot], operandRef{h.seq, s})
		}
	}
	var gotReady []uint64
	for s := 0; s < 64*len(c.ready); s++ {
		if c.ready[s/64]&(1<<uint(s%64)) == 0 {
			continue
		}
		pos := (s - c.rob.head) & c.rob.mask
		if s >= len(c.rob.hot) || pos >= c.rob.len() {
			return fmt.Sprintf("ready bit set on free slot %d (head %d, %d resident)", s, c.rob.head, c.rob.len())
		}
	}
	for i := 0; i < c.rob.len(); i++ {
		if s := c.rob.slot(i); c.ready[s/64]&(1<<uint(s%64)) != 0 {
			gotReady = append(gotReady, c.rob.hotAt(i).seq)
		}
	}
	if len(ready) != len(gotReady) || len(ready) > 0 && !reflect.DeepEqual(ready, gotReady) {
		return fmt.Sprintf("ready list %v, want %v", gotReady, ready)
	}
	got := make([]uint64, c.writers.n)
	for j := range got {
		got[j] = c.writers.at(j)
	}
	if len(got) != len(writers) || len(got) > 0 && !reflect.DeepEqual(got, writers) {
		return fmt.Sprintf("writer list %v, want %v", got, writers)
	}
	if wm != c.wm {
		return fmt.Sprintf("watermarks %v, want %v", c.wm, wm)
	}
	for i := 0; i < c.rob.len(); i++ {
		slot := c.rob.slot(i)
		var g []operandRef
		for l := c.consHead[slot]; l != noLink && len(g) <= 3*c.rob.len(); l = c.consNext[l] {
			g = append(g, operandRef{c.rob.hot[int(l)/3].seq, int(l) % 3})
		}
		w := cons[slot]
		slices.Reverse(w) // lists run newest first
		if len(g) != len(w) || len(w) > 0 && !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("consumers of seq %d: %v, want %v", c.rob.hotAt(i).seq, g, w)
		}
	}
	return ""
}

// TestSchedDerivedState steps cores one cycle at a time through
// mispredict squashes, TCA starts and store forwarding, and after every
// step demands the ready set, consumer lists, writer list and watermarks
// equal a from-scratch recomputation over the ROB. Midway each core is
// checkpointed and replaced by a core resumed from the snapshot (whose
// derived state restore rebuilds); the stepped run must still finish
// bit-identically to an uninterrupted one.
func TestSchedDerivedState(t *testing.T) {
	forward := proggen.DefaultOptions()
	forward.AccelEvery = 2
	forward.Blocks = 20
	forward.MemWords = 8
	fixedDev := func() isa.AccelDevice { return accel.NewFixedLatency(15) }
	kv, err := workload.KVStore(workload.KVStoreConfig{
		Operations: 30, FillerPerOp: 20, Buckets: 64, Keys: 32,
		LookupPct: 70, KeyWords: 4, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	dae, err := workload.DAEStream(workload.DAEStreamConfig{
		Streams: 4, WordsPerStream: 20, FillerPerOp: 25,
		ChunkWords: 8, ComputePerChunk: 6, Startup: 15, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	lowConf := HighPerfConfig()
	lowConf.Mode = accel.LT
	lowConf.PartialSpeculation = true
	lowConf.Predictor = PredictorConfig{Kind: "bimodal"}
	var cases []ckptCase
	for _, seed := range []int64{501, 502} {
		prog := proggen.Generate(seed, forward)
		for _, m := range []accel.Mode{accel.LT, accel.NLNT} {
			for _, mk := range []func() Config{HighPerfConfig, tinyConfig} {
				cfg := mk()
				cfg.Mode = m
				cases = append(cases, ckptCase{fmt.Sprintf("fixed%d-%s-%s", seed, cfg.Name, m), cfg, prog, fixedDev})
			}
		}
	}
	cases = append(cases,
		ckptCase{"lowconf-partial", lowConf, partialProgram(40), goldenHeapDev},
		ckptCase{"kvstore-L_NT", withMode(LowPerfConfig(), accel.LNT), kv.Accelerated, kv.NewDevice},
		ckptCase{"dae-L_T", withMode(HighPerfConfig(), accel.LT), dae.Accelerated, dae.NewDevice},
	)
	var squashes, forwards uint64
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, _ := steppedSchedRun(t, c)
			squashes += got.Stats.Mispredicts
			forwards += got.Stats.LoadsForwarded
		})
	}
	if squashes == 0 || forwards == 0 {
		t.Errorf("cases saw %d mispredict squashes and %d forwarded loads; both paths must be exercised", squashes, forwards)
	}
}

// TestSchedDerivedStateRingSizes runs the derived-state check at ROB sizes
// below, at and above one 64-slot ready word, including capacities that
// are not a power of two (the ring rounds up), on runs long enough for the
// head to wrap past the ring end several times. The midpoint restore
// rebases the head to slot 0, so a walk that mishandled the wrap would
// also show as a divergence from the uninterrupted run.
func TestSchedDerivedStateRingSizes(t *testing.T) {
	opts := proggen.DefaultOptions()
	opts.AccelEvery = 3
	opts.Blocks = 40
	opts.MaxTrips = 12
	opts.MemWords = 8
	prog := proggen.Generate(503, opts)
	dev := func() isa.AccelDevice { return accel.NewFixedLatency(9) }
	for _, rob := range []int{6, 24, 64, 100, 256} {
		for _, m := range []accel.Mode{accel.LT, accel.NLNT} {
			cfg := withMode(HighPerfConfig(), m)
			cfg.ROBSize = rob
			cfg.IQSize = min(cfg.IQSize, rob)
			cfg.LSQSize = min(cfg.LSQSize, rob)
			t.Run(fmt.Sprintf("rob%d-%s", rob, m), func(t *testing.T) {
				got, wraps := steppedSchedRun(t, ckptCase{cfg.Name, cfg, prog, dev})
				if wraps < 2 {
					t.Errorf("ROB head wrapped %d times in %d commits; the case must wrap the ring", wraps, got.Stats.Committed)
				}
			})
		}
	}
}

// steppedSchedRun steps a core one cycle at a time and after every step
// demands the derived state equal a from-scratch recomputation
// (schedMismatch). Midway it checkpoints the core and replaces it by one
// resumed from the snapshot, whose derived state restore rebuilds; the run
// must still finish bit-identically to an uninterrupted one. It returns
// the stepped result and how many times the ROB head wrapped past the
// ring end.
func steppedSchedRun(t *testing.T, c ckptCase) (*Result, int) {
	t.Helper()
	ref, err := c.newCore(t).Run(ckptBudget)
	if err != nil {
		t.Fatal(err)
	}
	mid := ref.Stats.Cycles / 2
	core := c.newCore(t)
	resumed := false
	wraps := 0
	for {
		if !resumed && core.Cycle() >= mid {
			ck, err := core.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			var dev isa.AccelDevice
			if c.dev != nil {
				dev = c.dev()
			}
			if core, err = NewFromCheckpoint(c.cfg, c.prog, dev, ck); err != nil {
				t.Fatal(err)
			}
			if msg := schedMismatch(core); msg != "" {
				t.Fatalf("after restore at cycle %d: %s", core.Cycle(), msg)
			}
			resumed = true
		}
		head := core.rob.head
		paused, err := core.RunTo(ckptBudget, core.Cycle()+1)
		if err != nil {
			t.Fatal(err)
		}
		if core.rob.head < head {
			wraps++
		}
		if msg := schedMismatch(core); msg != "" {
			t.Fatalf("cycle %d: %s", core.Cycle(), msg)
		}
		if !paused {
			break
		}
	}
	if !resumed {
		t.Fatal("run ended before the midpoint checkpoint")
	}
	got, err := core.Run(ckptBudget)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "stepped", ref, got)
	return got, wraps
}

// instrFlags is the opcode class an entry dispatched for in must cache
// (every robHot.fl bit but the source mask), from the isa predicates.
func instrFlags(in isa.Instruction) opFlags {
	var fl opFlags
	for _, f := range []struct {
		on bool
		fl opFlags
	}{
		{in.Op.IsLoad(), flLoad},
		{in.Op.IsStore(), flStore},
		{in.Op.IsCondBranch(), flCondBranch},
		{in.Op == isa.OpAccel, flAccel},
		{in.HasDst(), flDst},
	} {
		if f.on {
			fl |= f.fl
		}
	}
	return fl
}

func withMode(cfg Config, m accel.Mode) Config {
	cfg.Mode = m
	return cfg
}
