package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/isa"
)

// StringMatchConfig parameterizes the string-function benchmark: pairwise
// comparisons over a dictionary of variable-length strings — the "string
// fn" accelerator of the paper's Fig. 2 (references [6] and [10]).
type StringMatchConfig struct {
	// Comparisons is the number of strcmp calls.
	Comparisons int
	// FillerPerOp is the non-acceleratable instruction count between
	// calls.
	FillerPerOp int
	// Dictionary is the number of strings; MinWords/MaxWords their
	// length range (in 8-byte words, before the zero terminator).
	Dictionary int
	MinWords   int
	MaxWords   int
	// SharedPrefix biases string contents so comparisons run deep
	// before diverging (0..MaxWords words of common prefix).
	SharedPrefix int
	Seed         int64
}

// Validate reports configuration errors.
func (c StringMatchConfig) Validate() error {
	switch {
	case c.Comparisons < 2:
		return fmt.Errorf("workload: stringmatch needs >= 2 comparisons")
	case c.FillerPerOp < 0:
		return fmt.Errorf("workload: negative filler")
	case c.Dictionary < 2:
		return fmt.Errorf("workload: dictionary needs >= 2 strings")
	case c.MinWords < 1 || c.MaxWords < c.MinWords:
		return fmt.Errorf("workload: bad length range [%d,%d]", c.MinWords, c.MaxWords)
	case c.SharedPrefix < 0 || c.SharedPrefix > c.MinWords:
		return fmt.Errorf("workload: shared prefix %d exceeds min length %d", c.SharedPrefix, c.MinWords)
	}
	return nil
}

// String storage layout.
const (
	smStringsBase = 0x0080_0000
	smStride      = 1 << 12 // one string per 4 KiB slot
)

// Registers of the generated benchmark.
const (
	smA   = 1 // first string pointer
	smB   = 2 // second string pointer
	smWA  = 3 // word from A
	smWB  = 4 // word from B
	smRes = 5 // comparison result (accel.StrEqual/Greater/Less)
)

// StringMatch builds the string-compare benchmark pair. The baseline
// inlines a word-compare loop per call; the accelerated version issues one
// strcmp TCA invocation. Result encoding matches accel.StrCmp exactly, so
// final architectural state agrees.
func StringMatch(cfg StringMatchConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Build the dictionary.
	strings := make([][]uint64, cfg.Dictionary)
	prefix := make([]uint64, cfg.SharedPrefix)
	for i := range prefix {
		prefix[i] = uint64(rng.Intn(200) + 1)
	}
	for i := range strings {
		n := cfg.MinWords + rng.Intn(cfg.MaxWords-cfg.MinWords+1)
		s := make([]uint64, n)
		copy(s, prefix)
		for w := len(prefix); w < n; w++ {
			s[w] = uint64(rng.Intn(200) + 1)
		}
		strings[i] = s
	}

	// Comparison pairs.
	type pair struct{ a, b int }
	pairs := make([]pair, cfg.Comparisons)
	for i := range pairs {
		pairs[i] = pair{a: rng.Intn(cfg.Dictionary), b: rng.Intn(cfg.Dictionary)}
	}

	build := func(accelerated bool) (*isa.Program, [][2]int) {
		b := isa.NewBuilder()
		for i, s := range strings {
			base := smStringsBase + uint64(i)*smStride
			for w, v := range s {
				b.InitWord(base+uint64(w)*8, v)
			}
			// Terminator words are zero by default; no init needed.
		}
		for i := 0; i < 6; i++ {
			b.MovI(isa.R(22+i), int64(i+3))
		}
		fillRng := rand.New(rand.NewSource(cfg.Seed + 29))
		var ranges [][2]int
		for i, p := range pairs {
			emitHeapFiller(b, fillRng, cfg.FillerPerOp)
			b.MovI(isa.R(smA), int64(smStringsBase+uint64(p.a)*smStride))
			b.MovI(isa.R(smB), int64(smStringsBase+uint64(p.b)*smStride))
			if accelerated {
				b.Accel(isa.R(smRes), accel.StrCompare, isa.R(smA), isa.R(smB))
				continue
			}
			lo := b.Len()
			emitSoftwareStrcmp(b, i)
			ranges = append(ranges, [2]int{lo, b.Len()})
		}
		b.Halt()
		return b.MustBuild(), ranges
	}

	base, ranges := build(false)
	acc, _ := build(true)

	it, err := isa.NewInterp(base, nil)
	if err != nil {
		return nil, fmt.Errorf("workload: stringmatch baseline measurement: %w", err)
	}
	for _, r := range ranges {
		it.CountRange(r[0], r[1])
	}
	if err := it.Run(1 << 40); err != nil {
		return nil, fmt.Errorf("workload: stringmatch baseline measurement: %w", err)
	}

	w := &Workload{
		Name: "stringmatch",
		Description: fmt.Sprintf("strcmp: %d comparisons over %d strings of %d-%d words (prefix %d), %d filler/op",
			cfg.Comparisons, cfg.Dictionary, cfg.MinWords, cfg.MaxWords, cfg.SharedPrefix, cfg.FillerPerOp),
		Baseline:             base,
		Accelerated:          acc,
		Acceleratable:        it.RangeTotal(),
		Invocations:          uint64(cfg.Comparisons),
		BaselineInstructions: it.Stats.Retired,
		NewDevice:            func() isa.AccelDevice { return accel.NewStrCmp() },
		DeviceKey:            "strcmp",
		AccelLatency:         0, // length-dependent; measured from the L_T trace
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// emitSoftwareStrcmp inlines a word-compare loop over the pointers in
// smA/smB, leaving accel.StrEqual / StrGreater / StrLess in smRes. The
// comparison semantics mirror accel.StrCmp word for word.
func emitSoftwareStrcmp(b *isa.Builder, site int) {
	loop := fmt.Sprintf("sc%d", site)
	diff := fmt.Sprintf("scd%d", site)
	less := fmt.Sprintf("scl%d", site)
	eq := fmt.Sprintf("sce%d", site)
	done := fmt.Sprintf("scx%d", site)
	b.Label(loop)
	b.Load(isa.R(smWA), isa.R(smA), 0)
	b.Load(isa.R(smWB), isa.R(smB), 0)
	b.Bne(isa.R(smWA), isa.R(smWB), diff)
	b.Beq(isa.R(smWA), isa.RZero, eq) // both terminators
	b.AddI(isa.R(smA), isa.R(smA), 8)
	b.AddI(isa.R(smB), isa.R(smB), 8)
	b.Jmp(loop)
	b.Label(diff)
	// Unsigned-style compare via Slt on values < 2^63 (generator keeps
	// words small): A < B (or A terminated) -> less.
	b.Slt(isa.R(smRes), isa.R(smWA), isa.R(smWB))
	b.Bne(isa.R(smRes), isa.RZero, less)
	b.MovI(isa.R(smRes), accel.StrGreater)
	b.Jmp(done)
	b.Label(less)
	b.MovI(isa.R(smRes), accel.StrLess)
	b.Jmp(done)
	b.Label(eq)
	b.MovI(isa.R(smRes), accel.StrEqual)
	b.Label(done)
}
