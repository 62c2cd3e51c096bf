package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/redfa"
)

// RegexMatchConfig parameterizes the regular-expression benchmark — the
// "regex" accelerator of the paper's Fig. 2 (reference [6]): repeated DFA
// matches over a pool of input strings.
type RegexMatchConfig struct {
	// Pattern is the expression (redfa syntax: literals, '.', classes,
	// '*', '+', '?').
	Pattern string
	// Matches is the number of match calls.
	Matches int
	// FillerPerOp is the non-acceleratable instruction count between
	// calls.
	FillerPerOp int
	// Inputs is the pool of input strings; MaxLen their maximum symbol
	// count (pool slots are 512 bytes: up to 63 symbols + terminator).
	Inputs int
	MaxLen int
	Seed   int64
}

// Validate reports configuration errors.
func (c RegexMatchConfig) Validate() error {
	switch {
	case c.Pattern == "":
		return fmt.Errorf("workload: empty pattern")
	case c.Matches < 2:
		return fmt.Errorf("workload: regex needs >= 2 matches")
	case c.FillerPerOp < 0:
		return fmt.Errorf("workload: negative filler")
	case c.Inputs < 2:
		return fmt.Errorf("workload: regex needs >= 2 inputs")
	case c.MaxLen < 1 || c.MaxLen > 60:
		return fmt.Errorf("workload: max length %d out of [1,60]", c.MaxLen)
	}
	return nil
}

// Memory layout.
const (
	reTableBase  = 0x00A0_0000
	reFinalBase  = 0x00B8_0000
	reInputsBase = 0x00C0_0000
	reInputSlot  = 512
)

// Registers of the generated benchmark.
const (
	reRes   = 1  // match result
	reIn    = 2  // input cursor
	reState = 3  // DFA state
	reSym   = 4  // current symbol
	reOff   = 5  // table offset scratch
	reA     = 6  // address scratch
	reTerm  = 17 // terminator bound (256)
	reTab   = 18 // transition table base
	reFin   = 19 // finality table base
	reC8    = 20 // constant 8 (state<<8)
	reC3    = 21 // constant 3 (<<3 = *8)
)

// RegexMatch builds the regex benchmark pair over one compiled pattern.
// Half the input pool is sampled from the DFA's accepted language (random
// accepting walks), half is random noise, so both outcomes and a spread of
// walk lengths are exercised.
func RegexMatch(cfg RegexMatchConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dfa, err := redfa.Compile(cfg.Pattern)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	inputs := make([][]byte, cfg.Inputs)
	alphabet := patternAlphabet(cfg.Pattern)
	for i := range inputs {
		if i%2 == 0 {
			if s, ok := acceptingWalk(dfa, rng, cfg.MaxLen); ok {
				inputs[i] = s
				continue
			}
		}
		n := 1 + rng.Intn(cfg.MaxLen)
		s := make([]byte, n)
		for j := range s {
			s[j] = alphabet[rng.Intn(len(alphabet))]
		}
		inputs[i] = s
	}
	picks := make([]int, cfg.Matches)
	for i := range picks {
		picks[i] = rng.Intn(cfg.Inputs)
	}

	build := func(accelerated bool) (*isa.Program, [][2]int, redfa.Layout, error) {
		b := isa.NewBuilder()
		layout, err := dfa.Serialize(b, reTableBase, reFinalBase)
		if err != nil {
			return nil, nil, layout, err
		}
		for i, s := range inputs {
			redfa.WriteString(b, reInputsBase+uint64(i)*reInputSlot, s)
		}
		b.MovI(isa.R(reTerm), redfa.Terminator)
		b.MovI(isa.R(reTab), reTableBase)
		b.MovI(isa.R(reFin), reFinalBase)
		b.MovI(isa.R(reC8), 8)
		b.MovI(isa.R(reC3), 3)
		for i := 0; i < 6; i++ {
			b.MovI(isa.R(22+i), int64(i+3))
		}
		fillRng := rand.New(rand.NewSource(cfg.Seed + 31))
		var ranges [][2]int
		for i, pick := range picks {
			emitHeapFiller(b, fillRng, cfg.FillerPerOp)
			b.MovI(isa.R(reIn), int64(reInputsBase+uint64(pick)*reInputSlot))
			if accelerated {
				b.Accel(isa.R(reRes), accel.RegexMatch, isa.R(reIn))
				continue
			}
			lo := b.Len()
			emitSoftwareDFA(b, layout, i)
			ranges = append(ranges, [2]int{lo, b.Len()})
		}
		b.Halt()
		prog, err := b.Build()
		return prog, ranges, layout, err
	}

	base, ranges, layout, err := build(false)
	if err != nil {
		return nil, err
	}
	acc, _, _, err := build(true)
	if err != nil {
		return nil, err
	}

	it, err := isa.NewInterp(base, nil)
	if err != nil {
		return nil, fmt.Errorf("workload: regex baseline measurement: %w", err)
	}
	for _, r := range ranges {
		it.CountRange(r[0], r[1])
	}
	if err := it.Run(1 << 40); err != nil {
		return nil, fmt.Errorf("workload: regex baseline measurement: %w", err)
	}

	w := &Workload{
		Name: "regexmatch",
		Description: fmt.Sprintf("regex %q (%d DFA states): %d matches over %d inputs (<= %d symbols), %d filler/op",
			cfg.Pattern, layout.States, cfg.Matches, cfg.Inputs, cfg.MaxLen, cfg.FillerPerOp),
		Baseline:             base,
		Accelerated:          acc,
		Acceleratable:        it.RangeTotal(),
		Invocations:          uint64(cfg.Matches),
		BaselineInstructions: it.Stats.Retired,
		NewDevice:            func() isa.AccelDevice { return accel.NewRegex(layout) },
		DeviceKey:            fmt.Sprintf("regex:pattern=%q,states=%d", cfg.Pattern, layout.States),
		AccelLatency:         0, // length-dependent; measured from the L_T trace
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// emitSoftwareDFA inlines the table-driven matcher: result (0/1) in reRes.
// The walk mirrors accel.Regex symbol for symbol.
func emitSoftwareDFA(b *isa.Builder, layout redfa.Layout, site int) {
	loop := fmt.Sprintf("re%d", site)
	term := fmt.Sprintf("ret%d", site)
	reject := fmt.Sprintf("rer%d", site)
	done := fmt.Sprintf("red%d", site)
	b.MovI(isa.R(reState), int64(layout.Start))
	b.Label(loop)
	b.Load(isa.R(reSym), isa.R(reIn), 0)
	b.Bge(isa.R(reSym), isa.R(reTerm), term)
	// next = table[(state<<8 | sym) << 3]
	b.Shl(isa.R(reOff), isa.R(reState), isa.R(reC8))
	b.Add(isa.R(reOff), isa.R(reOff), isa.R(reSym))
	b.Shl(isa.R(reOff), isa.R(reOff), isa.R(reC3))
	b.Add(isa.R(reA), isa.R(reTab), isa.R(reOff))
	b.Load(isa.R(reState), isa.R(reA), 0)
	b.Beq(isa.R(reState), isa.RZero, reject)
	b.AddI(isa.R(reIn), isa.R(reIn), 8)
	b.Jmp(loop)
	b.Label(term)
	b.Shl(isa.R(reOff), isa.R(reState), isa.R(reC3))
	b.Add(isa.R(reA), isa.R(reFin), isa.R(reOff))
	b.Load(isa.R(reRes), isa.R(reA), 0)
	b.Jmp(done)
	b.Label(reject)
	b.MovI(isa.R(reRes), 0)
	b.Label(done)
}

// patternAlphabet extracts the literal symbols a pattern mentions (plus a
// decoy), for generating plausible inputs.
func patternAlphabet(pattern string) []byte {
	seen := make(map[byte]bool)
	var out []byte
	for i := 0; i < len(pattern); i++ {
		ch := pattern[i]
		switch ch {
		case '*', '+', '?', '.', '[', ']', '^':
			continue
		}
		if !seen[ch] {
			seen[ch] = true
			out = append(out, ch)
		}
	}
	out = append(out, 'z'+1) // a symbol outside most patterns
	return out
}

// acceptingWalk samples a string the DFA accepts by walking random live
// transitions toward a final state, bounded by maxLen.
func acceptingWalk(d *redfa.DFA, rng *rand.Rand, maxLen int) ([]byte, bool) {
	for attempt := 0; attempt < 32; attempt++ {
		var s []byte
		state := d.Start
		for len(s) < maxLen {
			if d.Final[state] && rng.Intn(3) == 0 {
				return s, true
			}
			// Collect live transitions.
			var syms []byte
			for sym := 0; sym < 256; sym++ {
				if d.Next[state][sym] != 0 {
					syms = append(syms, byte(sym))
				}
			}
			if len(syms) == 0 {
				break
			}
			pick := syms[rng.Intn(len(syms))]
			state = d.Next[state][pick]
			s = append(s, pick)
		}
		if d.Final[state] {
			return s, true
		}
	}
	return nil, false
}
