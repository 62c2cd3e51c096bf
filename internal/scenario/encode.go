package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Digest is the SHA-256 content address of a canonical encoding.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short renders the first 12 hex digits, for logs.
func (d Digest) Short() string { return hex.EncodeToString(d[:6]) }

// encoder streams the canonical binary encoding into a hash. Every
// field is written fixed-width little-endian in declared order;
// variable-length data (strings, slices) is length-prefixed so
// adjacent fields cannot alias. Any change to what is written — order,
// width, field set — must bump SchemeVersion.
//
// Fixed-width words collect in buf and reach the hash a 4 KiB chunk at
// a time, which keeps per-call hash overhead off the per-field path.
// buf is flushed when full, before every raw Write and in sum, so the
// hashed byte stream is exactly the concatenation of the writes in
// order.
type encoder struct {
	h   hash.Hash
	n   int // bytes of buf in use
	buf [4096]byte
}

// encoders recycles encoders: sum returns each one, so a digest costs
// no 4 KiB allocation (the buffer escapes through the hash.Hash call).
var encoders = sync.Pool{New: func() any { return &encoder{h: sha256.New()} }}

// newEncoder starts a stream salted with the scheme and record kind.
// The encoder must not be used after sum.
func newEncoder(kind string) *encoder {
	e := encoders.Get().(*encoder)
	e.h.Reset()
	e.str("tca-scenario")
	e.u64(SchemeVersion)
	e.str(kind)
	return e
}

func (e *encoder) flush() {
	e.h.Write(e.buf[:e.n])
	e.n = 0
}

func (e *encoder) sum() Digest {
	e.flush()
	var d Digest
	e.h.Sum(d[:0])
	encoders.Put(e)
	return d
}

func (e *encoder) u64(v uint64) {
	if e.n+8 > len(e.buf) {
		e.flush()
	}
	binary.LittleEndian.PutUint64(e.buf[e.n:], v)
	e.n += 8
}

func (e *encoder) i64(v int64) { e.u64(uint64(v)) }
func (e *encoder) int(v int)   { e.i64(int64(v)) }

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) bool(b bool) {
	if b {
		e.u64(1)
	} else {
		e.u64(0)
	}
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.flush()
	io.WriteString(e.h, s)
}

// config writes the canonical form of a simulator configuration.
func (e *encoder) config(cfg sim.Config) {
	c := cfg.Canonical()
	e.int(c.FetchWidth)
	e.int(c.DispatchWidth)
	e.int(c.IssueWidth)
	e.int(c.CommitWidth)
	e.int(c.ROBSize)
	e.int(c.IQSize)
	e.int(c.LSQSize)
	e.int(c.FrontEndDepth)
	e.int(c.CommitDelay)
	e.int(c.IntALUs)
	e.int(c.IntMuls)
	e.int(c.FPUs)
	e.int(c.MemPorts)
	e.int(c.IntMulLatency)
	e.int(c.IntDivLatency)
	e.int(c.FPAddLatency)
	e.int(c.FPMulLatency)
	e.int(c.FMALatency)
	e.int(c.FPDivLatency)
	e.u64(uint64(c.Mode))
	e.bool(c.PartialSpeculation)
	e.bool(c.ConservativeLoadOrdering)
	e.str(c.Predictor.Kind)
	e.int(c.Predictor.TableBits)
	e.int(c.Predictor.HistBits)
	e.cache(c.Memory.L1I)
	e.cache(c.Memory.L1D)
	e.cache(c.Memory.L2)
	e.int(c.Memory.DRAM.Latency)
	e.int(c.Memory.DRAM.CyclesPerLine)
	e.tlb(c.Memory.DTLB)
	e.tlb(c.Memory.ITLB)
	e.bool(c.RecordAccelEvents)
	e.int(c.PipeTraceLimit)
}

func (e *encoder) cache(c mem.CacheConfig) {
	e.int(c.SizeBytes)
	e.int(c.Ways)
	e.int(c.LineBytes)
	e.int(c.HitLatency)
	e.int(c.MSHRs)
	e.bool(c.NextLinePrefetch)
}

func (e *encoder) tlb(c mem.TLBConfig) {
	e.int(c.Entries)
	e.int(c.PageBits)
	e.int(c.WalkLatency)
}

// progDigests memoizes program-section digests by pointer. A built
// *isa.Program is immutable (the Builder returns a fresh value and
// nothing downstream writes through it), so the pointer stands for the
// content for the life of the process; structurally equal programs at
// different addresses just hash the same content twice. Memoization
// therefore changes digest cost, never digest value.
var progDigests sync.Map // *isa.Program -> Digest

// programRef writes the program's own content address in place of its
// full encoding, computing that sub-digest once per distinct program.
// Sweeps re-digest the same multi-megabyte instruction stream once per
// variant otherwise — with warm-checkpoint forking eliminating the
// re-simulation, the repeated SHA-256 of the shared program was the
// next thing dominating forked sweeps.
func (e *encoder) programRef(p *isa.Program) {
	if d, ok := progDigests.Load(p); ok {
		e.digest(d.(Digest))
		return
	}
	d := programDigest(p)
	progDigests.Store(p, d)
	e.digest(d)
}

// programDigest is the program's own content address, computed without
// the memo.
func programDigest(p *isa.Program) Digest {
	e := newEncoder("program")
	e.program(p)
	return e.sum()
}

// digest writes a nested content address, length-prefixed like every
// other variable-width field.
func (e *encoder) digest(d Digest) {
	e.u64(uint64(len(d)))
	e.flush()
	e.h.Write(d[:])
}

// program writes the instruction stream and initial memory image.
// Labels are diagnostics only and excluded. Each instruction is two
// words: its five byte-wide fields packed into one, then Imm. Op and
// Reg are uint8 (TestPackedFieldWidths pins that), so the packing is
// lossless.
func (e *encoder) program(p *isa.Program) {
	e.u64(uint64(len(p.Code)))
	for _, in := range p.Code {
		e.u64(uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.Src1)<<16 |
			uint64(in.Src2)<<24 | uint64(in.Src3)<<32)
		e.i64(in.Imm)
	}
	e.u64(uint64(len(p.Init)))
	for _, mi := range p.Init {
		e.u64(mi.Addr)
		e.u64(mi.Data)
	}
}

// Digest returns the spec's content address. Panics on uncacheable
// specs — callers gate on Cacheable() first.
func (sp Spec) Digest() Digest {
	if !sp.Cacheable() {
		panic("scenario: Digest on uncacheable spec (device without DeviceKey)")
	}
	e := newEncoder("run")
	e.config(sp.Config)
	e.programRef(sp.Program)
	e.bool(sp.NewDevice != nil)
	e.str(sp.DeviceKey)
	e.i64(sp.MaxCycles)
	return e.sum()
}

// Digest returns the measure spec's content address. Panics on
// uncacheable specs — callers gate on Cacheable() first.
func (ms MeasureSpec) Digest() Digest {
	if !ms.Cacheable() {
		panic("scenario: Digest on uncacheable measure spec (device without DeviceKey)")
	}
	w := ms.Workload
	e := newEncoder("measure")
	e.config(ms.Config)
	e.programRef(w.Baseline)
	e.programRef(w.Accelerated)
	e.u64(w.Acceleratable)
	e.u64(w.Invocations)
	e.u64(w.BaselineInstructions)
	e.f64(w.AccelLatency)
	e.bool(w.NewDevice != nil)
	e.str(w.DeviceKey)
	e.i64(ms.MaxCycles)
	return e.sum()
}

// Describe writes the human-readable canonical form — every field that
// participates in the digest, in encoding order — followed by the
// digest itself. cmd/tcasim's -dump-scenario flag prints this.
func (sp Spec) Describe(w io.Writer) {
	c := sp.Config.Canonical()
	fmt.Fprintf(w, "scheme:      tca-scenario v%d\n", SchemeVersion)
	fmt.Fprintf(w, "widths:      fetch=%d dispatch=%d issue=%d commit=%d\n",
		c.FetchWidth, c.DispatchWidth, c.IssueWidth, c.CommitWidth)
	fmt.Fprintf(w, "windows:     rob=%d iq=%d lsq=%d frontend=%d commit-delay=%d\n",
		c.ROBSize, c.IQSize, c.LSQSize, c.FrontEndDepth, c.CommitDelay)
	fmt.Fprintf(w, "units:       alu=%d mul=%d fpu=%d memports=%d\n",
		c.IntALUs, c.IntMuls, c.FPUs, c.MemPorts)
	fmt.Fprintf(w, "latencies:   imul=%d idiv=%d fadd=%d fmul=%d fma=%d fdiv=%d\n",
		c.IntMulLatency, c.IntDivLatency, c.FPAddLatency, c.FPMulLatency,
		c.FMALatency, c.FPDivLatency)
	fmt.Fprintf(w, "mode:        %s (partial-spec=%v conservative-loads=%v)\n",
		c.Mode, c.PartialSpeculation, c.ConservativeLoadOrdering)
	fmt.Fprintf(w, "predictor:   %s table=%d hist=%d\n",
		c.Predictor.Kind, c.Predictor.TableBits, c.Predictor.HistBits)
	cc := func(name string, cfg mem.CacheConfig) {
		fmt.Fprintf(w, "%-12s %dB %d-way %dB-line hit=%d mshrs=%d prefetch=%v\n",
			name+":", cfg.SizeBytes, cfg.Ways, cfg.LineBytes, cfg.HitLatency,
			cfg.MSHRs, cfg.NextLinePrefetch)
	}
	cc("l1i", c.Memory.L1I)
	cc("l1d", c.Memory.L1D)
	cc("l2", c.Memory.L2)
	fmt.Fprintf(w, "dram:        latency=%d cycles/line=%d\n",
		c.Memory.DRAM.Latency, c.Memory.DRAM.CyclesPerLine)
	fmt.Fprintf(w, "dtlb:        entries=%d pagebits=%d walk=%d\n",
		c.Memory.DTLB.Entries, c.Memory.DTLB.PageBits, c.Memory.DTLB.WalkLatency)
	fmt.Fprintf(w, "itlb:        entries=%d pagebits=%d walk=%d\n",
		c.Memory.ITLB.Entries, c.Memory.ITLB.PageBits, c.Memory.ITLB.WalkLatency)
	fmt.Fprintf(w, "observe:     accel-events=%v pipetrace=%d\n",
		c.RecordAccelEvents, c.PipeTraceLimit)
	fmt.Fprintf(w, "program:     %d instructions, %d init words\n",
		len(sp.Program.Code), len(sp.Program.Init))
	if sp.NewDevice == nil {
		fmt.Fprintf(w, "device:      none\n")
	} else if sp.DeviceKey == "" {
		fmt.Fprintf(w, "device:      <no key: uncacheable>\n")
	} else {
		fmt.Fprintf(w, "device:      %s\n", sp.DeviceKey)
	}
	fmt.Fprintf(w, "max-cycles:  %d\n", sp.MaxCycles)
	if sp.Cacheable() {
		fmt.Fprintf(w, "digest:      %s\n", sp.Digest())
	} else {
		fmt.Fprintf(w, "digest:      <uncacheable>\n")
	}
}
