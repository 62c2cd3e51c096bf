package isa

import (
	"errors"
	"strings"
	"testing"
)

// buildSumLoop builds: sum integers 1..n into r1, store to memory[0x100].
func buildSumLoop(n int64) *Program {
	b := NewBuilder()
	b.MovI(R(1), 0) // sum
	b.MovI(R(2), 1) // i
	b.MovI(R(3), n) // limit
	b.Label("loop")
	b.Add(R(1), R(1), R(2))
	b.AddI(R(2), R(2), 1)
	b.Bge(R(3), R(2), "loop")
	b.MovI(R(4), 0x100)
	b.Store(R(1), R(4), 0)
	b.Halt()
	return b.MustBuild()
}

func TestInterpSumLoop(t *testing.T) {
	prog := buildSumLoop(100)
	it, err := NewInterp(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := it.Reg(R(1)); got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
	if got := it.Mem.Load(0x100); got != 5050 {
		t.Errorf("mem[0x100] = %d, want 5050", got)
	}
	if it.Stats.Branches != 100 || it.Stats.Taken != 99 {
		t.Errorf("branches = %d taken = %d, want 100/99", it.Stats.Branches, it.Stats.Taken)
	}
	if it.Stats.Stores != 1 {
		t.Errorf("stores = %d, want 1", it.Stats.Stores)
	}
}

func TestInterpFuel(t *testing.T) {
	b := NewBuilder()
	b.Label("spin")
	b.Jmp("spin")
	b.Halt()
	prog := b.MustBuild()
	it, err := NewInterp(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = it.Run(1000)
	if !errors.Is(err, ErrFuelExhausted) {
		t.Errorf("err = %v, want ErrFuelExhausted", err)
	}
	if it.Stats.Retired != 1000 {
		t.Errorf("retired = %d, want 1000", it.Stats.Retired)
	}
}

func TestInterpRZero(t *testing.T) {
	b := NewBuilder()
	b.MovI(RZero, 77) // write discarded
	b.AddI(R(1), RZero, 5)
	b.Halt()
	it, err := NewInterp(b.MustBuild(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if it.Reg(RZero) != 0 {
		t.Error("R0 must read as zero")
	}
	if it.Reg(R(1)) != 5 {
		t.Errorf("r1 = %d, want 5", it.Reg(R(1)))
	}
}

func TestInterpFloatKernel(t *testing.T) {
	// r10 -> x[0..3], f-regs compute dot product of x with itself.
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.InitFloat(uint64(0x200+8*i), float64(i+1))
	}
	b.MovI(R(10), 0x200)
	b.FMovI(F(0), 0) // acc
	for i := 0; i < 4; i++ {
		b.FLoad(F(1), R(10), int64(8*i))
		b.FMA(F(0), F(1), F(1), F(0))
	}
	b.MovI(R(11), 0x300)
	b.FStore(F(0), R(11), 0)
	b.Halt()
	it, err := NewInterp(b.MustBuild(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := it.Mem.LoadFloat(0x300); got != 30 { // 1+4+9+16
		t.Errorf("dot = %v, want 30", got)
	}
	if got := it.FloatReg(F(0)); got != 30 {
		t.Errorf("f0 = %v, want 30", got)
	}
}

func TestInterpAccelWithoutDevice(t *testing.T) {
	b := NewBuilder()
	b.Accel(R(1), 0)
	b.Halt()
	it, err := NewInterp(b.MustBuild(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(10); err == nil {
		t.Error("expected error for accel without device")
	}
}

// echoDevice returns its first argument plus the kind, and stores its second
// argument to the address in its third.
type echoDevice struct{ pending []AccelStore }

func (d *echoDevice) Name() string { return "echo" }
func (d *echoDevice) Invoke(call AccelCall, mem WordReader) AccelResult {
	d.pending = nil
	var ops []AccelMemOp
	if call.Args[2] != 0 {
		d.pending = append(d.pending, AccelStore{Addr: call.Args[2], Data: call.Args[1]})
		ops = append(ops, AccelMemOp{Addr: call.Args[2], Size: 8, Store: true})
	}
	return AccelResult{Value: call.Args[0] + uint64(call.Kind), Latency: 3, MemOps: ops}
}
func (d *echoDevice) PendingStores() []AccelStore { return d.pending }

func TestInterpAccelInvocation(t *testing.T) {
	b := NewBuilder()
	b.MovI(R(1), 40)
	b.MovI(R(2), 99)
	b.MovI(R(3), 0x500)
	b.Accel(R(4), 2, R(1), R(2), R(3))
	b.Halt()
	dev := &echoDevice{}
	it, err := NewInterp(b.MustBuild(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := it.Reg(R(4)); got != 42 {
		t.Errorf("accel result = %d, want 42", got)
	}
	if got := it.Mem.Load(0x500); got != 99 {
		t.Errorf("accel store = %d, want 99", got)
	}
	if it.Stats.AccelInvocations != 1 || it.Stats.AccelMemOps != 1 {
		t.Errorf("accel stats = %+v", it.Stats)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Jmp("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("err = %v, want undefined label", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Errorf("err = %v, want duplicate label", err)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		prog Program
	}{
		{"empty", Program{}},
		{"no-halt", Program{Code: []Instruction{{Op: OpNop}}}},
		{"bad-branch", Program{Code: []Instruction{
			{Op: OpBeq, Src1: R(1), Src2: R(2), Imm: 99},
			{Op: OpHalt},
		}}},
		{"fp-class-violation", Program{Code: []Instruction{
			{Op: OpFAdd, Dst: R(1), Src1: F(0), Src2: F(1)},
			{Op: OpHalt},
		}}},
		{"int-class-violation", Program{Code: []Instruction{
			{Op: OpAdd, Dst: F(1), Src1: R(0), Src2: R(1)},
			{Op: OpHalt},
		}}},
		{"load-base-fp", Program{Code: []Instruction{
			{Op: OpLoad, Dst: R(1), Src1: F(0)},
			{Op: OpHalt},
		}}},
		{"fp-dst-out-of-range", Program{Code: []Instruction{
			{Op: OpFAdd, Dst: 200, Src1: F(1), Src2: F(2)},
			{Op: OpHalt},
		}}},
		{"accel-src-out-of-range", Program{Code: []Instruction{
			{Op: OpAccel, Dst: R(1), Src1: R(2), Src2: NumRegs},
			{Op: OpHalt},
		}}},
	}
	for _, c := range cases {
		if err := c.prog.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid program", c.name)
		}
	}
}

// TestOperandTableMatchesUse: a register field Validate leaves unchecked
// is one no executor reads or writes. For every opcode, the fields the
// operand table classes are exactly the fields HasDst and SourcesInto
// report, so a validated program can never index a register file out of
// range.
func TestOperandTableMatchesUse(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		in := Instruction{Op: op, Dst: R(1), Src1: R(2), Src2: R(3), Src3: R(4)}
		used := [4]bool{in.HasDst()}
		for _, r := range in.SourcesInto(nil) {
			used[r-R(1)] = true
		}
		for i, o := range operands[op] {
			if (o != noReg) != used[i] {
				t.Errorf("%s field %d: table class %d, executors use it: %v", op, i, o, used[i])
			}
		}
	}
}

func TestDisassembleContainsLabels(t *testing.T) {
	prog := buildSumLoop(3)
	asm := prog.Disassemble()
	if !strings.Contains(asm, "loop:") {
		t.Errorf("disassembly missing label:\n%s", asm)
	}
	if !strings.Contains(asm, "bge") {
		t.Errorf("disassembly missing branch:\n%s", asm)
	}
}

func TestProgramNewMemoryImage(t *testing.T) {
	b := NewBuilder()
	b.InitWord(0x80, 11)
	b.Halt()
	prog := b.MustBuild()
	m := prog.NewMemoryImage()
	if m.Load(0x80) != 11 {
		t.Error("init word not applied")
	}
	if m.Writes != 0 {
		t.Error("init must not count as execution writes")
	}
	// Image is fresh each time.
	m.Store(0x80, 99)
	if prog.NewMemoryImage().Load(0x80) != 11 {
		t.Error("NewMemoryImage must return a fresh image")
	}
}
