package isa

import (
	"errors"
	"fmt"
	"math"
)

// ErrFuelExhausted is returned when the interpreter hits its step limit
// before the program halts.
var ErrFuelExhausted = errors.New("isa: interpreter fuel exhausted")

// InterpStats summarizes one functional execution.
type InterpStats struct {
	// Retired is the number of instructions executed, including the halt.
	Retired uint64
	// Branches and Taken count executed conditional branches.
	Branches uint64
	Taken    uint64
	// Loads and Stores count explicit memory instructions (not accel
	// traffic).
	Loads  uint64
	Stores uint64
	// AccelInvocations counts OpAccel executions.
	AccelInvocations uint64
	// AccelMemOps counts word accesses performed by accelerator
	// invocations.
	AccelMemOps uint64
}

// Interp executes programs functionally, in order, one instruction at a
// time. It is the architectural golden model the out-of-order simulator is
// verified against.
type Interp struct {
	Prog  *Program
	Mem   *Memory
	Accel AccelDevice // may be nil when the program has no OpAccel

	// Regs is the architectural register file: 0..31 integer (R0 zero),
	// 32..63 floating point (as float64 bit patterns).
	Regs [NumRegs]uint64

	PC    int
	Stats InterpStats

	// Ranges counts dynamic instructions executed inside static PC
	// ranges (used to measure acceleratable-region coverage). Configure
	// with CountRange before running.
	Ranges []RangeCounter

	// rangeOf maps each PC to its range index (-1 = none); built by
	// CountRange so per-step accounting is O(1) even with hundreds of
	// registered ranges. Later registrations win on overlap.
	rangeOf []int32

	halted bool
}

// RangeCounter tallies dynamic executions within [Lo, Hi).
type RangeCounter struct {
	Lo, Hi int
	Count  uint64
}

// CountRange registers a static PC range whose dynamic execution count is
// tracked during Run, returning its index for RangeCount.
func (it *Interp) CountRange(lo, hi int) int {
	if it.rangeOf == nil {
		it.rangeOf = make([]int32, len(it.Prog.Code))
		for i := range it.rangeOf {
			it.rangeOf[i] = -1
		}
	}
	idx := len(it.Ranges)
	it.Ranges = append(it.Ranges, RangeCounter{Lo: lo, Hi: hi})
	for pc := lo; pc < hi && pc < len(it.rangeOf); pc++ {
		it.rangeOf[pc] = int32(idx)
	}
	return idx
}

// RangeCount returns the dynamic execution count of a registered range.
func (it *Interp) RangeCount(idx int) uint64 { return it.Ranges[idx].Count }

// RangeTotal returns the dynamic count summed over all registered ranges.
func (it *Interp) RangeTotal() uint64 {
	var total uint64
	for _, r := range it.Ranges {
		total += r.Count
	}
	return total
}

// NewInterp validates prog and prepares an interpreter over a fresh memory
// image of it. Like sim.New, it refuses a program Validate rejects rather
// than run it into an out-of-range register or branch.
func NewInterp(prog *Program, dev AccelDevice) (*Interp, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return &Interp{Prog: prog, Mem: prog.NewMemoryImage(), Accel: dev}, nil
}

// Reg reads an architectural register (R0 reads as zero).
func (it *Interp) Reg(r Reg) uint64 {
	if r == RZero {
		return 0
	}
	return it.Regs[r]
}

// SetReg writes an architectural register (writes to R0 are discarded).
func (it *Interp) SetReg(r Reg, v uint64) {
	if r == RZero {
		return
	}
	it.Regs[r] = v
}

// FloatReg reads a floating-point register as a float64.
func (it *Interp) FloatReg(r Reg) float64 { return fromBits(it.Reg(r)) }

// Halted reports whether the program has executed OpHalt.
func (it *Interp) Halted() bool { return it.halted }

// Run executes until halt or until maxSteps instructions have retired.
func (it *Interp) Run(maxSteps uint64) error {
	for !it.halted {
		if it.Stats.Retired >= maxSteps {
			return fmt.Errorf("%w after %d instructions at pc=%d", ErrFuelExhausted, it.Stats.Retired, it.PC)
		}
		if err := it.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes a single instruction.
func (it *Interp) Step() error {
	if it.halted {
		return nil
	}
	if it.PC < 0 || it.PC >= len(it.Prog.Code) {
		return fmt.Errorf("isa: pc %d out of range [0,%d)", it.PC, len(it.Prog.Code))
	}
	if it.rangeOf != nil {
		if idx := it.rangeOf[it.PC]; idx >= 0 {
			it.Ranges[idx].Count++
		}
	}
	in := it.Prog.Code[it.PC]
	next := it.PC + 1
	switch in.Op {
	case OpNop:
	case OpHalt:
		it.halted = true
	case OpMovI:
		it.SetReg(in.Dst, uint64(in.Imm))
	case OpAddI:
		it.SetReg(in.Dst, it.Reg(in.Src1)+uint64(in.Imm))
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSlt:
		it.SetReg(in.Dst, EvalALU(in.Op, it.Reg(in.Src1), it.Reg(in.Src2)))
	case OpFMovI:
		it.SetReg(in.Dst, uint64(in.Imm))
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		it.SetReg(in.Dst, EvalFP(in.Op, it.Reg(in.Src1), it.Reg(in.Src2)))
	case OpFMA:
		r := math.FMA(fromBits(it.Reg(in.Src1)), fromBits(it.Reg(in.Src2)), fromBits(it.Reg(in.Src3)))
		it.SetReg(in.Dst, toBits(r))
	case OpLoad, OpFLoad:
		addr := it.Reg(in.Src1) + uint64(in.Imm)
		it.SetReg(in.Dst, it.Mem.Load(addr))
		it.Stats.Loads++
	case OpStore, OpFStore:
		addr := it.Reg(in.Src1) + uint64(in.Imm)
		it.Mem.Store(addr, it.Reg(in.Src2))
		it.Stats.Stores++
	case OpBeq, OpBne, OpBlt, OpBge:
		it.Stats.Branches++
		if EvalBranch(in.Op, it.Reg(in.Src1), it.Reg(in.Src2)) {
			it.Stats.Taken++
			next = int(in.Imm)
		}
	case OpJmp:
		next = int(in.Imm)
	case OpAccel:
		if it.Accel == nil {
			return fmt.Errorf("isa: accel instruction at pc=%d but no device attached", it.PC)
		}
		call := AccelCall{Kind: in.Imm, Args: [3]uint64{it.Reg(in.Src1), it.Reg(in.Src2), it.Reg(in.Src3)}}
		res, stores := InvokeAndCollect(it.Accel, call, it.Mem)
		ApplyStores(it.Mem, stores)
		it.SetReg(in.Dst, res.Value)
		it.Stats.AccelInvocations++
		it.Stats.AccelMemOps += uint64(len(res.MemOps))
	default:
		return fmt.Errorf("isa: unimplemented opcode %s at pc=%d", in.Op, it.PC)
	}
	it.Stats.Retired++
	it.PC = next
	return nil
}

// EvalALU computes an integer ALU result. Division and remainder by zero
// yield zero (defined behaviour so wrong-path execution in the simulator is
// safe).
func EvalALU(op Op, a, b uint64) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0
		}
		if int64(a) == math.MinInt64 && int64(b) == -1 {
			return a // overflow wraps, matching hardware saturating-free div
		}
		return uint64(int64(a) / int64(b))
	case OpRem:
		if b == 0 {
			return 0
		}
		if int64(a) == math.MinInt64 && int64(b) == -1 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	case OpSlt:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("isa: EvalALU on non-ALU op %s", op))
}

// EvalFP computes a floating-point result over float64 bit patterns.
func EvalFP(op Op, a, b uint64) uint64 {
	x, y := fromBits(a), fromBits(b)
	switch op {
	case OpFAdd:
		return toBits(x + y)
	case OpFSub:
		return toBits(x - y)
	case OpFMul:
		return toBits(x * y)
	case OpFDiv:
		return toBits(x / y)
	}
	panic(fmt.Sprintf("isa: EvalFP on non-FP op %s", op))
}

// EvalBranch reports whether a conditional branch is taken.
func EvalBranch(op Op, a, b uint64) bool {
	switch op {
	case OpBeq:
		return a == b
	case OpBne:
		return a != b
	case OpBlt:
		return int64(a) < int64(b)
	case OpBge:
		return int64(a) >= int64(b)
	}
	panic(fmt.Sprintf("isa: EvalBranch on non-branch op %s", op))
}

func toBits(f float64) uint64   { return math.Float64bits(f) }
func fromBits(b uint64) float64 { return math.Float64frombits(b) }
