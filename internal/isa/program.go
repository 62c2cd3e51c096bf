package isa

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Program is an executable unit: a code sequence plus an initial memory
// image description. Branch targets are absolute instruction indices
// ("addresses" in units of instructions).
type Program struct {
	Code []Instruction

	// Init is applied to memory before execution starts.
	Init []MemInit

	// Labels maps symbolic names to instruction indices (for diagnostics).
	//lint:exempt-field R8 Program.Labels diagnostics only; execution and identity depend on Code/Init alone
	Labels map[string]int
}

// MemInit seeds one 8-byte memory word before the program runs.
type MemInit struct {
	Addr uint64
	Data uint64
}

// NewMemoryImage returns a fresh Memory with the program's initial image
// applied. Access counters are reset afterwards so they reflect execution
// only.
func (p *Program) NewMemoryImage() *Memory {
	m := NewMemory()
	for _, mi := range p.Init {
		m.Store(mi.Addr, mi.Data)
	}
	m.Reads, m.Writes = 0, 0
	return m
}

// Validate checks structural invariants: branch targets in range, every
// register field an opcode uses in range and of its class, and a halt. It
// returns the first violation found. Builder.Build validates every program
// it makes, and the executors (sim.New, NewInterp, staticmodel.NewProfile)
// validate again before running one; nothing in between re-walks the code.
func (p *Program) Validate() error {
	n := len(p.Code)
	if n == 0 {
		return fmt.Errorf("isa: empty program")
	}
	sawHalt := false
	for i, in := range p.Code {
		if in.Op >= numOps {
			return fmt.Errorf("isa: @%d: invalid opcode %d", i, int(in.Op))
		}
		if in.Op == OpHalt {
			sawHalt = true
		}
		if in.Op.IsBranch() {
			if in.Imm < 0 || in.Imm >= int64(n) {
				return fmt.Errorf("isa: @%d: branch target %d out of range [0,%d)", i, in.Imm, n)
			}
		}
		if !regsInClass(in) {
			return fmt.Errorf("isa: @%d (%s): %w", i, in, regClassError(in))
		}
	}
	if !sawHalt {
		return fmt.Errorf("isa: program has no halt instruction")
	}
	return nil
}

// regClass is the register file an operand field must name.
type regClass uint8

const (
	noReg  regClass = iota // field not read or written by the opcode
	intReg                 // r0..r31
	fpReg                  // f0..f31
	anyReg                 // any architectural register
)

// classRange is each class's register range [lo, lo+span], checked with
// one wrapping subtraction; noReg admits every byte.
var classRange = [...]struct{ lo, span Reg }{
	noReg:  {0, 255},
	intReg: {0, NumIntRegs - 1},
	fpReg:  {NumIntRegs, NumFPRegs - 1},
	anyReg: {0, NumRegs - 1},
}

var classNames = [...]string{intReg: "an integer register", fpReg: "an fp register", anyReg: "a register"}

// operands gives, per opcode, the class of Dst, Src1, Src2 and Src3 in
// that order. A field an executor reads (Instruction.HasDst and
// SourcesInto, the simulator's source mask) is never noReg here, so a
// validated program never indexes a register file out of range.
var operands = [numOps][4]regClass{
	OpMovI:   {intReg},
	OpAddI:   {intReg, intReg},
	OpAdd:    intALU,
	OpSub:    intALU,
	OpMul:    intALU,
	OpDiv:    intALU,
	OpRem:    intALU,
	OpAnd:    intALU,
	OpOr:     intALU,
	OpXor:    intALU,
	OpShl:    intALU,
	OpShr:    intALU,
	OpSlt:    intALU,
	OpFMovI:  {fpReg},
	OpFAdd:   fpALU,
	OpFSub:   fpALU,
	OpFMul:   fpALU,
	OpFDiv:   fpALU,
	OpFMA:    {fpReg, fpReg, fpReg, fpReg},
	OpLoad:   {intReg, intReg},
	OpStore:  {noReg, intReg, intReg},
	OpFLoad:  {fpReg, intReg},
	OpFStore: {noReg, intReg, fpReg},
	OpBeq:    intBranch,
	OpBne:    intBranch,
	OpBlt:    intBranch,
	OpBge:    intBranch,
	OpAccel:  {anyReg, anyReg, anyReg, anyReg},
}

var (
	intALU    = [4]regClass{intReg, intReg, intReg}
	fpALU     = [4]regClass{fpReg, fpReg, fpReg}
	intBranch = [4]regClass{noReg, intReg, intReg}
)

// fieldRange is operands with each class replaced by its classRange, per
// opcode; it spans every byte so regsInClass indexes it without a bounds
// check (Validate rejects opcodes past numOps first).
var fieldRange = func() (t [256][4]struct{ lo, span Reg }) {
	for op, cls := range operands {
		for i, c := range cls {
			t[op][i] = classRange[c]
		}
	}
	return t
}()

// regsInClass reports whether every register field of in lies in its
// class. It is the inlinable fast path of Validate's loop; regClassError
// names the offending field once it fails.
func regsInClass(in Instruction) bool {
	r := &fieldRange[in.Op]
	return in.Dst-r[0].lo <= r[0].span && in.Src1-r[1].lo <= r[1].span &&
		in.Src2-r[2].lo <= r[2].span && in.Src3-r[3].lo <= r[3].span
}

// regClassError names the first register field of in outside its class.
func regClassError(in Instruction) error {
	for i, r := range [4]Reg{in.Dst, in.Src1, in.Src2, in.Src3} {
		c := operands[in.Op][i]
		if b := classRange[c]; r-b.lo > b.span {
			return fmt.Errorf("%s must be %s, got %s", operandName(in.Op, i), classNames[c], r)
		}
	}
	return nil
}

// operandName names field i (Dst, Src1, Src2, Src3) in error messages;
// memory ops call Src1 the base and Src2 the stored value.
func operandName(op Op, i int) string {
	if op.IsMem() && i == 1 {
		return "base"
	}
	if op.IsStore() && i == 2 {
		return "value"
	}
	return [...]string{"dst", "src1", "src2", "src3"}[i]
}

// Disassemble renders the whole program, one instruction per line, with
// label annotations.
func (p *Program) Disassemble() string {
	names := make([]string, 0, len(p.Labels))
	for name := range p.Labels {
		names = append(names, name)
	}
	sort.Strings(names)
	byIndex := make(map[int][]string, len(p.Labels))
	for _, name := range names {
		byIndex[p.Labels[name]] = append(byIndex[p.Labels[name]], name)
	}
	var b strings.Builder
	for i, in := range p.Code {
		for _, l := range byIndex[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  @%-5d %s\n", i, in)
	}
	return b.String()
}

// Builder assembles a Program with symbolic labels. Forward references are
// resolved at Build time. The zero value is not usable; call NewBuilder.
type Builder struct {
	code   []Instruction
	labels map[string]int
	// fixups[i] names the label the branch at index i targets.
	fixups map[int]string
	init   []MemInit
	errs   []error
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{
		labels: make(map[string]int),
		fixups: make(map[int]string),
	}
}

// Len returns the number of instructions emitted so far (the index of the
// next instruction).
func (b *Builder) Len() int { return len(b.code) }

// Label binds name to the next instruction index.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("isa: duplicate label %q", name))
		return
	}
	b.labels[name] = len(b.code)
}

// Emit appends a raw instruction and returns its index.
func (b *Builder) Emit(in Instruction) int {
	b.code = append(b.code, in)
	return len(b.code) - 1
}

// InitWord seeds the initial memory image with an 8-byte word.
func (b *Builder) InitWord(addr uint64, data uint64) {
	b.init = append(b.init, MemInit{Addr: addr, Data: data})
}

// InitFloat seeds the initial memory image with a float64.
func (b *Builder) InitFloat(addr uint64, v float64) {
	b.InitWord(addr, math.Float64bits(v))
}

// Convenience emitters. Branch emitters take a label name.

func (b *Builder) Nop()  { b.Emit(Instruction{Op: OpNop}) }
func (b *Builder) Halt() { b.Emit(Instruction{Op: OpHalt}) }

func (b *Builder) MovI(dst Reg, imm int64) { b.Emit(Instruction{Op: OpMovI, Dst: dst, Imm: imm}) }
func (b *Builder) AddI(dst, src Reg, imm int64) {
	b.Emit(Instruction{Op: OpAddI, Dst: dst, Src1: src, Imm: imm})
}
func (b *Builder) Add(dst, s1, s2 Reg) { b.emit3(OpAdd, dst, s1, s2) }
func (b *Builder) Sub(dst, s1, s2 Reg) { b.emit3(OpSub, dst, s1, s2) }
func (b *Builder) Mul(dst, s1, s2 Reg) { b.emit3(OpMul, dst, s1, s2) }
func (b *Builder) Div(dst, s1, s2 Reg) { b.emit3(OpDiv, dst, s1, s2) }
func (b *Builder) Rem(dst, s1, s2 Reg) { b.emit3(OpRem, dst, s1, s2) }
func (b *Builder) And(dst, s1, s2 Reg) { b.emit3(OpAnd, dst, s1, s2) }
func (b *Builder) Or(dst, s1, s2 Reg)  { b.emit3(OpOr, dst, s1, s2) }
func (b *Builder) Xor(dst, s1, s2 Reg) { b.emit3(OpXor, dst, s1, s2) }
func (b *Builder) Shl(dst, s1, s2 Reg) { b.emit3(OpShl, dst, s1, s2) }
func (b *Builder) Shr(dst, s1, s2 Reg) { b.emit3(OpShr, dst, s1, s2) }
func (b *Builder) Slt(dst, s1, s2 Reg) { b.emit3(OpSlt, dst, s1, s2) }

func (b *Builder) FMovI(dst Reg, v float64) {
	b.Emit(Instruction{Op: OpFMovI, Dst: dst, Imm: int64(math.Float64bits(v))})
}
func (b *Builder) FAdd(dst, s1, s2 Reg) { b.emit3(OpFAdd, dst, s1, s2) }
func (b *Builder) FSub(dst, s1, s2 Reg) { b.emit3(OpFSub, dst, s1, s2) }
func (b *Builder) FMul(dst, s1, s2 Reg) { b.emit3(OpFMul, dst, s1, s2) }
func (b *Builder) FDiv(dst, s1, s2 Reg) { b.emit3(OpFDiv, dst, s1, s2) }
func (b *Builder) FMA(dst, s1, s2, acc Reg) {
	b.Emit(Instruction{Op: OpFMA, Dst: dst, Src1: s1, Src2: s2, Src3: acc})
}

func (b *Builder) Load(dst, base Reg, off int64) {
	b.Emit(Instruction{Op: OpLoad, Dst: dst, Src1: base, Imm: off})
}
func (b *Builder) Store(val, base Reg, off int64) {
	b.Emit(Instruction{Op: OpStore, Src1: base, Src2: val, Imm: off})
}
func (b *Builder) FLoad(dst, base Reg, off int64) {
	b.Emit(Instruction{Op: OpFLoad, Dst: dst, Src1: base, Imm: off})
}
func (b *Builder) FStore(val, base Reg, off int64) {
	b.Emit(Instruction{Op: OpFStore, Src1: base, Src2: val, Imm: off})
}

func (b *Builder) Beq(s1, s2 Reg, label string) { b.branch(OpBeq, s1, s2, label) }
func (b *Builder) Bne(s1, s2 Reg, label string) { b.branch(OpBne, s1, s2, label) }
func (b *Builder) Blt(s1, s2 Reg, label string) { b.branch(OpBlt, s1, s2, label) }
func (b *Builder) Bge(s1, s2 Reg, label string) { b.branch(OpBge, s1, s2, label) }
func (b *Builder) Jmp(label string) {
	idx := b.Emit(Instruction{Op: OpJmp})
	b.fixups[idx] = label
}

// Accel emits an accelerator invocation.
func (b *Builder) Accel(dst Reg, kind int64, args ...Reg) {
	in := Instruction{Op: OpAccel, Dst: dst, Imm: kind}
	if len(args) > 3 {
		b.errs = append(b.errs, fmt.Errorf("isa: accel takes at most 3 register args, got %d", len(args)))
		args = args[:3]
	}
	regs := []*Reg{&in.Src1, &in.Src2, &in.Src3}
	for i, a := range args {
		*regs[i] = a
	}
	b.Emit(in)
}

func (b *Builder) emit3(op Op, dst, s1, s2 Reg) {
	b.Emit(Instruction{Op: op, Dst: dst, Src1: s1, Src2: s2})
}

func (b *Builder) branch(op Op, s1, s2 Reg, label string) {
	idx := b.Emit(Instruction{Op: op, Src1: s1, Src2: s2})
	b.fixups[idx] = label
}

// Build resolves labels and returns the validated program.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	code := make([]Instruction, len(b.code))
	copy(code, b.code)
	idxs := make([]int, 0, len(b.fixups))
	for idx := range b.fixups {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		label := b.fixups[idx]
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q at @%d", label, idx)
		}
		code[idx].Imm = int64(target)
	}
	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	p := &Program{Code: code, Init: append([]MemInit(nil), b.init...), Labels: labels}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error, for tests and generators whose
// inputs are statically known to be valid.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
