package sim

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
)

// fuzzWordLen is the encoded size of one instruction in the fuzz input:
// Op, Dst, Src1, Src2 and Src3 as raw bytes, then a signed 24-bit Imm.
const fuzzWordLen = 8

// decodeFuzzProgram turns fuzz bytes into a program: one instruction per
// fuzzWordLen bytes (a short tail is dropped), ended with a halt. Fields
// are taken raw, so out-of-range opcodes, registers and branch targets are
// all in the input space.
func decodeFuzzProgram(data []byte) *isa.Program {
	p := &isa.Program{}
	for ; len(data) >= fuzzWordLen; data = data[fuzzWordLen:] {
		imm := int64(int32(uint32(data[5])<<8|uint32(data[6])<<16|uint32(data[7])<<24) >> 8)
		p.Code = append(p.Code, isa.Instruction{
			Op: isa.Op(data[0]), Dst: isa.Reg(data[1]),
			Src1: isa.Reg(data[2]), Src2: isa.Reg(data[3]), Src3: isa.Reg(data[4]),
			Imm: imm,
		})
	}
	p.Code = append(p.Code, isa.Instruction{Op: isa.OpHalt})
	return p
}

// encodeFuzzProgram is decodeFuzzProgram's inverse for seed programs
// (the trailing halt is implied).
func encodeFuzzProgram(code ...isa.Instruction) []byte {
	var out []byte
	for _, in := range code {
		imm := uint32(in.Imm)
		out = append(out, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2), byte(in.Src3),
			byte(imm), byte(imm>>8), byte(imm>>16))
	}
	return out
}

// FuzzValidatedProgramRuns: every program Validate accepts is safe to
// execute, and every program it rejects is refused by both executors. The
// functional interpreter and the cycle-level core each run an accepted
// program with a fixed-latency accelerator under a small budget; a run may
// end in an error (an exhausted budget, say) but must never panic.
// Validation is the only guard the executors have, so any panic here is a
// hole in Program.Validate or an executor bug.
func FuzzValidatedProgramRuns(f *testing.F) {
	r, fr := isa.R, isa.F
	// An fp destination past the register file: accepted by a class check
	// that only asks "is it >= 32", then a panic in the core.
	f.Add(encodeFuzzProgram(
		isa.Instruction{Op: isa.OpFAdd, Dst: 200, Src1: fr(1), Src2: fr(2)}))
	// An accelerator argument past the register file.
	f.Add(encodeFuzzProgram(
		isa.Instruction{Op: isa.OpAccel, Dst: r(1), Src1: r(2), Src2: isa.NumRegs}))
	// A load base past the register file: rejected, so NewInterp must
	// refuse it too rather than read a register that does not exist.
	f.Add(encodeFuzzProgram(
		isa.Instruction{Op: isa.OpLoad, Dst: r(1), Src1: 99, Imm: 8}))
	// A counted loop with memory traffic and an accelerator call.
	f.Add(encodeFuzzProgram(
		isa.Instruction{Op: isa.OpMovI, Dst: r(1), Imm: 0x1000},
		isa.Instruction{Op: isa.OpMovI, Dst: r(2), Imm: 5},
		isa.Instruction{Op: isa.OpStore, Src1: r(1), Src2: r(2), Imm: 8},
		isa.Instruction{Op: isa.OpLoad, Dst: r(3), Src1: r(1), Imm: 8},
		isa.Instruction{Op: isa.OpAccel, Dst: r(4), Src1: r(3), Src2: r(1), Src3: r(2), Imm: 1},
		isa.Instruction{Op: isa.OpAddI, Dst: r(2), Src1: r(2), Imm: -1},
		isa.Instruction{Op: isa.OpBne, Src1: r(2), Src2: isa.RZero, Imm: 2}))
	// Floating point through memory, and a forward jump.
	f.Add(encodeFuzzProgram(
		isa.Instruction{Op: isa.OpFMovI, Dst: fr(0), Imm: 0x123456},
		isa.Instruction{Op: isa.OpFMA, Dst: fr(1), Src1: fr(0), Src2: fr(0), Src3: fr(1)},
		isa.Instruction{Op: isa.OpFStore, Src1: r(5), Src2: fr(1), Imm: 64},
		isa.Instruction{Op: isa.OpFLoad, Dst: fr(2), Src1: r(5), Imm: 64},
		isa.Instruction{Op: isa.OpJmp, Imm: 6},
		isa.Instruction{Op: isa.OpFDiv, Dst: fr(3), Src1: fr(2), Src2: fr(3)},
		isa.Instruction{Op: isa.OpDiv, Dst: r(6), Src1: r(5), Src2: isa.RZero}))
	// An endless loop: both executors must stop at their budgets.
	f.Add(encodeFuzzProgram(isa.Instruction{Op: isa.OpJmp, Imm: 0}))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProgram(data)
		verr := p.Validate()
		it, ierr := isa.NewInterp(p, accel.NewFixedLatency(3))
		c, serr := New(HighPerfConfig(), p, accel.NewFixedLatency(3))
		if verr != nil {
			if ierr == nil || serr == nil {
				t.Fatalf("Validate rejects the program (%v), yet NewInterp returned %v and New %v", verr, ierr, serr)
			}
			return
		}
		if ierr != nil || serr != nil {
			t.Fatalf("Validate accepts the program, yet NewInterp returned %v and New %v", ierr, serr)
		}
		_ = it.Run(20_000)
		_, _ = c.Run(50_000)
	})
}
