package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/sim"
)

// TestPackedFieldWidths guards the packed instruction word: Op, Dst,
// Src1, Src2 and Src3 each take one byte of it. Widening either type
// would let distinct instructions share a word, so it must fail here
// (and bump SchemeVersion with a new packing) rather than alias digests.
func TestPackedFieldWidths(t *testing.T) {
	if s := unsafe.Sizeof(isa.Op(0)); s != 1 {
		t.Errorf("isa.Op is %d bytes; the packed instruction word gives it 1", s)
	}
	if s := unsafe.Sizeof(isa.Reg(0)); s != 1 {
		t.Errorf("isa.Reg is %d bytes; the packed instruction word gives it 1", s)
	}
}

// refEncoder is the v4 layout written the plain way: one hash.Write
// per field, no chunk buffer, and the packed instruction word spelled
// out byte by byte. The encoder under test must hash the same stream.
type refEncoder struct{ h hash.Hash }

func newRefEncoder(kind string) refEncoder {
	r := refEncoder{h: sha256.New()}
	r.str("tca-scenario")
	r.word(SchemeVersion)
	r.str(kind)
	return r
}

func (r refEncoder) word(v uint64) { r.h.Write(binary.LittleEndian.AppendUint64(nil, v)) }

func (r refEncoder) str(s string) {
	r.word(uint64(len(s)))
	r.h.Write([]byte(s))
}

func (r refEncoder) digest(d Digest) {
	r.word(uint64(len(d)))
	r.h.Write(d[:])
}

func (r refEncoder) program(p *isa.Program) {
	r.word(uint64(len(p.Code)))
	for _, in := range p.Code {
		r.h.Write([]byte{byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2), byte(in.Src3), 0, 0, 0})
		r.word(uint64(in.Imm))
	}
	r.word(uint64(len(p.Init)))
	for _, mi := range p.Init {
		r.word(mi.Addr)
		r.word(mi.Data)
	}
}

func (r refEncoder) sum() Digest {
	var d Digest
	r.h.Sum(d[:0])
	return d
}

func refProgramDigest(p *isa.Program) Digest {
	r := newRefEncoder("program")
	r.program(p)
	return r.sum()
}

// refRunDigest is Spec.Digest through the reference encoder. The config
// section is taken as the encoder emits it: v4 left it unchanged, and
// TestGoldenDigests pins it.
func refRunDigest(sp Spec) Digest {
	var rec recorder
	e := &encoder{h: &rec}
	e.config(sp.Config)
	e.flush()

	r := newRefEncoder("run")
	r.h.Write(rec.Bytes())
	r.digest(refProgramDigest(sp.Program))
	var dev uint64
	if sp.NewDevice != nil {
		dev = 1
	}
	r.word(dev)
	r.str(sp.DeviceKey)
	r.word(uint64(sp.MaxCycles))
	return r.sum()
}

// recorder is a hash.Hash that keeps the bytes written to it.
type recorder struct{ bytes.Buffer }

func (*recorder) Sum(b []byte) []byte { return b }
func (*recorder) Size() int           { return 0 }
func (*recorder) BlockSize() int      { return 1 }

// streamProgram is n instructions and m init words whose every field
// differs from its neighbours, so a dropped, repeated or reordered word
// changes the stream.
func streamProgram(n, m int) *isa.Program {
	p := &isa.Program{Code: make([]isa.Instruction, n), Init: make([]isa.MemInit, m)}
	for i := range p.Code {
		p.Code[i] = isa.Instruction{
			Op: isa.Op(i), Dst: isa.Reg(i + 1), Src1: isa.Reg(i + 2),
			Src2: isa.Reg(i + 3), Src3: isa.Reg(i + 4), Imm: int64(i)*-7919 - 1,
		}
	}
	for i := range p.Init {
		p.Init[i] = isa.MemInit{Addr: 0x1000 + 8*uint64(i), Data: ^uint64(i)}
	}
	return p
}

// TestProgramDigestStreaming compares the chunked encoder with the
// reference across every place a chunk boundary can fall. A program
// section starts right after a flush, so its code length word opens a
// chunk and instruction k sits at byte 8+16k: the first boundary splits
// instruction 255 between its two words. One extra word written ahead
// of the program moves every instruction by half its size, so the
// boundary falls between instructions instead. Over both phases and a
// window of code lengths around 256, the boundary lands before each
// word of an instruction, before the init length and before each word
// of an init entry; 300 init words (4800 bytes) cross a boundary on
// their own.
func TestProgramDigestStreaming(t *testing.T) {
	var e encoder
	perChunk := len(e.buf) / 16
	for n := perChunk - 3; n <= perChunk+2; n++ {
		for _, m := range []int{0, 1, 2, 3, 300} {
			p := streamProgram(n, m)
			if got, want := programDigest(p), refProgramDigest(p); got != want {
				t.Errorf("code %d init %d: program digest %s, reference %s", n, m, got.Short(), want.Short())
			}
			spec := Spec{Config: sim.HighPerfConfig(), Program: p, MaxCycles: 1000}
			if got, want := spec.Digest(), refRunDigest(spec); got != want {
				t.Errorf("code %d init %d: Spec.Digest %s, reference %s", n, m, got.Short(), want.Short())
			}

			const pad = 0xa5a5a5a5a5a5a5a5
			enc := newEncoder("program")
			enc.u64(pad)
			enc.program(p)
			ref := newRefEncoder("program")
			ref.word(pad)
			ref.program(p)
			if got, want := enc.sum(), ref.sum(); got != want {
				t.Errorf("code %d init %d, shifted by one word: digest %s, reference %s", n, m, got.Short(), want.Short())
			}
		}
	}
}

// Perturbations FuzzProgramDigest applies to its decoded program.
const (
	perturbOp uint8 = iota
	perturbDst
	perturbSrc1
	perturbSrc2
	perturbSrc3
	perturbImm
	perturbAddr
	perturbData
	swapDstSrc1
	swapSrc1Src2
	swapSrc2Src3
	moveCodeToInit // last instruction becomes the first init word
	moveInitToCode // first init word becomes the last instruction
	numPerturbations
)

// fuzzProgram decodes code as 13-byte instructions (Op, Dst, Src1, Src2,
// Src3, then a 64-bit Imm) and init as 16-byte words (Addr, Data).
// Trailing partial records are dropped.
func fuzzProgram(code, init []byte) *isa.Program {
	p := &isa.Program{}
	for ; len(code) >= 13; code = code[13:] {
		p.Code = append(p.Code, isa.Instruction{
			Op: isa.Op(code[0]), Dst: isa.Reg(code[1]), Src1: isa.Reg(code[2]),
			Src2: isa.Reg(code[3]), Src3: isa.Reg(code[4]),
			Imm: int64(binary.LittleEndian.Uint64(code[5:])),
		})
	}
	for ; len(init) >= 16; init = init[16:] {
		p.Init = append(p.Init, isa.MemInit{
			Addr: binary.LittleEndian.Uint64(init),
			Data: binary.LittleEndian.Uint64(init[8:]),
		})
	}
	return p
}

// perturbProgram returns a copy of p with one perturbation applied at
// index at, XOR-ing field perturbations with val. It reports false when
// the perturbation is a no-op for this input (an XOR with zero, a swap
// of equal registers, a record that does not exist).
func perturbProgram(p *isa.Program, kind uint8, at uint16, val uint64) (*isa.Program, bool) {
	q := &isa.Program{
		Code: append([]isa.Instruction(nil), p.Code...),
		Init: append([]isa.MemInit(nil), p.Init...),
	}
	kind %= numPerturbations
	switch kind {
	case perturbAddr, perturbData:
		if len(q.Init) == 0 {
			return nil, false
		}
		mi := &q.Init[int(at)%len(q.Init)]
		if kind == perturbAddr {
			mi.Addr ^= val
		} else {
			mi.Data ^= val
		}
		return q, val != 0
	case moveCodeToInit:
		if len(q.Code) == 0 {
			return nil, false
		}
		in := q.Code[len(q.Code)-1]
		q.Code = q.Code[:len(q.Code)-1]
		packed := uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.Src1)<<16 |
			uint64(in.Src2)<<24 | uint64(in.Src3)<<32
		q.Init = append([]isa.MemInit{{Addr: packed, Data: uint64(in.Imm)}}, q.Init...)
		return q, true
	case moveInitToCode:
		if len(q.Init) == 0 || q.Init[0].Addr >= 1<<40 {
			return nil, false
		}
		mi := q.Init[0]
		q.Init = q.Init[1:]
		q.Code = append(q.Code, isa.Instruction{
			Op: isa.Op(mi.Addr), Dst: isa.Reg(mi.Addr >> 8), Src1: isa.Reg(mi.Addr >> 16),
			Src2: isa.Reg(mi.Addr >> 24), Src3: isa.Reg(mi.Addr >> 32), Imm: int64(mi.Data),
		})
		return q, true
	}
	if len(q.Code) == 0 {
		return nil, false
	}
	in := &q.Code[int(at)%len(q.Code)]
	old := *in
	switch kind {
	case perturbOp:
		in.Op ^= isa.Op(val)
	case perturbDst:
		in.Dst ^= isa.Reg(val)
	case perturbSrc1:
		in.Src1 ^= isa.Reg(val)
	case perturbSrc2:
		in.Src2 ^= isa.Reg(val)
	case perturbSrc3:
		in.Src3 ^= isa.Reg(val)
	case perturbImm:
		in.Imm ^= int64(val)
	case swapDstSrc1:
		in.Dst, in.Src1 = in.Src1, in.Dst
	case swapSrc1Src2:
		in.Src1, in.Src2 = in.Src2, in.Src1
	case swapSrc2Src3:
		in.Src2, in.Src3 = in.Src3, in.Src2
	}
	return q, *in != old
}

// FuzzProgramDigest: the program digest matches the reference encoder,
// and every perturbation of a field, every swap of adjacent register
// fields and every move of a word across the Code/Init boundary moves
// it. The moves hash the same words in the same order, so only the
// length prefixes tell the two programs apart.
func FuzzProgramDigest(f *testing.F) {
	var code, init []byte
	for i := 0; i < 3; i++ {
		code = append(code, byte(isa.OpAdd)+byte(i), 1+byte(i), 2+byte(i), 3+byte(i), 4+byte(i))
		code = binary.LittleEndian.AppendUint64(code, uint64(100+i))
	}
	for i := 0; i < 2; i++ {
		init = binary.LittleEndian.AppendUint64(init, 0x1000+8*uint64(i))
		init = binary.LittleEndian.AppendUint64(init, 42+uint64(i))
	}
	for kind := uint8(0); kind < numPerturbations; kind++ {
		f.Add(code, init, kind, uint16(kind), uint64(1))
	}
	f.Fuzz(func(t *testing.T, code, init []byte, kind uint8, at uint16, val uint64) {
		p := fuzzProgram(code, init)
		want := programDigest(p)
		if ref := refProgramDigest(p); want != ref {
			t.Fatalf("digest %s, reference %s", want.Short(), ref.Short())
		}
		q, changed := perturbProgram(p, kind, at, val)
		if !changed {
			return
		}
		if programDigest(q) == want {
			t.Errorf("perturbation %d at %d (val %#x) did not move the program digest", kind%numPerturbations, at, val)
		}
	})
}
