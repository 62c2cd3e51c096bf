package proggen

import (
	"testing"

	"repro/internal/isa"
)

func TestGenerateProducesValidPrograms(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		prog := Generate(seed, DefaultOptions())
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: invalid program: %v", seed, err)
		}
		it, err := isa.NewInterp(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Run(10_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if it.Stats.Retired == 0 {
			t.Fatalf("seed %d: empty execution", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(7, DefaultOptions())
	b := Generate(7, DefaultOptions())
	if len(a.Code) != len(b.Code) {
		t.Fatal("lengths differ")
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(1, DefaultOptions())
	b := Generate(2, DefaultOptions())
	same := len(a.Code) == len(b.Code)
	if same {
		for i := range a.Code {
			if a.Code[i] != b.Code[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical programs")
	}
}

func TestGenerateAccelVariants(t *testing.T) {
	opt := DefaultOptions()
	opt.AccelEvery = 1
	prog := Generate(3, opt)
	found := false
	for _, in := range prog.Code {
		if in.Op == isa.OpAccel {
			found = true
			break
		}
	}
	if !found {
		t.Error("AccelEvery=1 produced no accel instructions")
	}
	// Without the option there must be none.
	plain := Generate(3, DefaultOptions())
	for _, in := range plain.Code {
		if in.Op == isa.OpAccel {
			t.Fatal("accel instruction without AccelEvery")
		}
	}
}

func TestGenerateNoFPOption(t *testing.T) {
	opt := DefaultOptions()
	opt.FP = false
	prog := Generate(11, opt)
	for i, in := range prog.Code {
		if in.Op.IsFP() {
			t.Fatalf("fp instruction at %d with FP disabled: %v", i, in)
		}
	}
}
