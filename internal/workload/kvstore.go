package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/isa"
)

// KVStoreConfig parameterizes the hash-map benchmark: random lookups and
// inserts against an open-addressing table — the "hash map" accelerator of
// the paper's Fig. 2 (reference [6], server-side scripting workloads).
type KVStoreConfig struct {
	// Operations is the number of lookup/insert calls.
	Operations int
	// FillerPerOp is the non-acceleratable instruction count between
	// calls.
	FillerPerOp int
	// Buckets is the table capacity (power of two).
	Buckets int
	// Keys is the distinct-key universe; keep Keys <= Buckets/2 so the
	// load factor stays moderate and probes stay short.
	Keys int
	// LookupPct is the percentage of operations that are lookups
	// (the rest insert/update).
	LookupPct int
	// KeyWords selects the keying scheme: 0 hashes integer keys directly
	// (cheap calls — the model correctly predicts such probes are too
	// cheap to accelerate); >0 hashes KeyWords words of key data per
	// call, the string-keyed scheme of the paper's reference [6] that
	// gives the Fig. 2 hash-map marker its ~30-instruction granularity.
	KeyWords int
	Seed     int64
}

// Validate reports configuration errors.
func (c KVStoreConfig) Validate() error {
	switch {
	case c.Operations < 2:
		return fmt.Errorf("workload: kvstore needs >= 2 operations")
	case c.FillerPerOp < 0:
		return fmt.Errorf("workload: negative filler")
	case c.Buckets < 4 || c.Buckets&(c.Buckets-1) != 0:
		return fmt.Errorf("workload: buckets %d must be a power of two >= 4", c.Buckets)
	case c.Keys < 1 || c.Keys > c.Buckets/2:
		return fmt.Errorf("workload: keys %d must be in [1, buckets/2=%d]", c.Keys, c.Buckets/2)
	case c.LookupPct < 0 || c.LookupPct > 100:
		return fmt.Errorf("workload: lookup%% %d out of range", c.LookupPct)
	case c.KeyWords < 0 || c.KeyWords > 24:
		return fmt.Errorf("workload: key words %d out of range [0,24]", c.KeyWords)
	}
	return nil
}

// Memory layout.
const (
	kvTableBase   = 0x0040_0000 // hash table (16-byte buckets)
	kvKeyDataBase = 0x0060_0000 // key data for string-keyed tables
	kvKeyStride   = 256         // bytes per key slot (up to 32 words)
)

// Registers of the generated benchmark.
const (
	kvKey  = 1  // key operand (value or key-data pointer)
	kvVal  = 2  // value operand / result
	kvH    = 3  // probe index / hash accumulator
	kvA    = 4  // bucket address
	kvS    = 5  // stored key
	kvW    = 6  // key-data word (string-keyed hashing)
	kvTab  = 18 // table base
	kvMask = 19 // buckets-1
	kvMult = 20 // hash multiplier
	kvFour = 21 // constant 4 (shift for *16)
)

// kvKeyPtr returns the key-data address of a key ID.
func kvKeyPtr(id uint64) uint64 { return kvKeyDataBase + id*kvKeyStride }

// kvOp is one generated operation.
type kvOp struct {
	lookup bool
	key    uint64
	value  uint64
}

// KVStore builds the hash-map benchmark pair. The baseline inlines the
// software probe loop (multiplicative hash, linear probing over 16-byte
// buckets); the accelerated version issues one hash-map TCA invocation per
// call. Both probe identical sequences, so final table state matches.
func KVStore(cfg KVStoreConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Generate key data for string-keyed tables (ID 1..Keys).
	seedMem := isa.NewMemory()
	var keyData [][]uint64
	if cfg.KeyWords > 0 {
		keyData = make([][]uint64, cfg.Keys+1)
		for id := 1; id <= cfg.Keys; id++ {
			words := make([]uint64, cfg.KeyWords)
			for w := range words {
				words[w] = uint64(rng.Intn(1<<16) + 1)
			}
			keyData[id] = words
			for w, v := range words {
				seedMem.Store(kvKeyPtr(uint64(id))+uint64(w)*8, v)
			}
		}
	}

	// Pre-populate half the key universe functionally, then dump the
	// table image as memory init for both program variants.
	seedDev := newKVDevice(cfg)
	for k := 1; k <= cfg.Keys/2; k++ {
		key := kvOpKey(cfg, uint64(k))
		res := seedDev.Invoke(isa.AccelCall{Kind: accel.HashInsert, Args: [3]uint64{key, uint64(k) * 10, 0}}, seedMem)
		isa.ApplyStores(seedMem, seedDev.PendingStores())
		if res.Value != 1 {
			return nil, fmt.Errorf("workload: kvstore prepopulation overflow")
		}
	}

	ops := make([]kvOp, cfg.Operations)
	for i := range ops {
		key := kvOpKey(cfg, uint64(1+rng.Intn(cfg.Keys)))
		if rng.Intn(100) < cfg.LookupPct {
			ops[i] = kvOp{lookup: true, key: key}
		} else {
			ops[i] = kvOp{key: key, value: uint64(rng.Intn(1 << 20))}
		}
	}

	base, baseRanges := buildKVProgram(cfg, seedMem, keyData, ops, false)
	acc, _ := buildKVProgram(cfg, seedMem, keyData, ops, true)

	// Measure baseline accounting on the golden model.
	it, err := isa.NewInterp(base, nil)
	if err != nil {
		return nil, fmt.Errorf("workload: kvstore baseline measurement: %w", err)
	}
	for _, r := range baseRanges {
		it.CountRange(r[0], r[1])
	}
	if err := it.Run(1 << 40); err != nil {
		return nil, fmt.Errorf("workload: kvstore baseline measurement: %w", err)
	}

	w := &Workload{
		Name: "kvstore",
		Description: fmt.Sprintf("hash map: %d ops (%d%% lookups), %d buckets, %d keys, %d filler/op",
			cfg.Operations, cfg.LookupPct, cfg.Buckets, cfg.Keys, cfg.FillerPerOp),
		Baseline:             base,
		Accelerated:          acc,
		Acceleratable:        it.RangeTotal(),
		Invocations:          uint64(cfg.Operations),
		BaselineInstructions: it.Stats.Retired,
		NewDevice: func() isa.AccelDevice {
			return newKVDevice(cfg)
		},
		DeviceKey: fmt.Sprintf("hashmap:base=0x%x,buckets=%d,keywords=%d",
			kvTableBase, cfg.Buckets, cfg.KeyWords),
		AccelLatency: 0, // probe-dependent; measured from the L_T trace
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// newKVDevice builds the device matching the configuration's key scheme.
func newKVDevice(cfg KVStoreConfig) *accel.HashMap {
	if cfg.KeyWords > 0 {
		return accel.NewStringKeyedHashMap(kvTableBase, cfg.Buckets, cfg.KeyWords)
	}
	return accel.NewHashMap(kvTableBase, cfg.Buckets)
}

// kvOpKey converts a key ID to the operand the call passes: the ID itself
// for integer keys, the key-data pointer for string keys.
func kvOpKey(cfg KVStoreConfig, id uint64) uint64 {
	if cfg.KeyWords > 0 {
		return kvKeyPtr(id)
	}
	return id
}

// buildKVProgram emits the benchmark. It returns the PC ranges of the
// software probe sites in the baseline variant.
func buildKVProgram(cfg KVStoreConfig, tableImage *isa.Memory, keyData [][]uint64, ops []kvOp, accelerated bool) (*isa.Program, [][2]int) {
	b := isa.NewBuilder()
	dumpTableInit(b, tableImage, cfg.Buckets)
	for id := 1; id < len(keyData); id++ {
		for w, v := range keyData[id] {
			b.InitWord(kvKeyPtr(uint64(id))+uint64(w)*8, v)
		}
	}

	mult := kvHashMult // runtime conversion: the constant overflows int64
	b.MovI(isa.R(kvTab), kvTableBase)
	b.MovI(isa.R(kvMask), int64(cfg.Buckets-1))
	b.MovI(isa.R(kvMult), int64(mult))
	b.MovI(isa.R(kvFour), 4)
	for i := 0; i < 6; i++ {
		b.MovI(isa.R(22+i), int64(i+3))
	}

	fillRng := rand.New(rand.NewSource(cfg.Seed + 13))
	var ranges [][2]int
	for i, op := range ops {
		emitHeapFiller(b, fillRng, cfg.FillerPerOp) // same filler flavour as the heap benchmark
		b.MovI(isa.R(kvKey), int64(op.key))
		if accelerated {
			if op.lookup {
				b.Accel(isa.R(kvVal), accel.HashLookup, isa.R(kvKey))
			} else {
				b.MovI(isa.R(kvVal), int64(op.value))
				b.Accel(isa.R(kvS), accel.HashInsert, isa.R(kvKey), isa.R(kvVal))
			}
			continue
		}
		lo := b.Len()
		if op.lookup {
			emitSoftwareLookup(b, cfg, i)
		} else {
			b.MovI(isa.R(kvVal), int64(op.value))
			emitSoftwareInsert(b, cfg, i)
		}
		ranges = append(ranges, [2]int{lo, b.Len()})
	}
	b.Halt()
	return b.MustBuild(), ranges
}

// kvHashMult mirrors the device's multiplicative-hash constant. A
// compile-time assertion in the tests keeps them in sync.
const kvHashMult uint64 = 0x9E3779B97F4A7C15

// emitHash computes the home bucket of kvKey into kvH, mirroring the
// device: multiplicative hash for integer keys, an unrolled fold over the
// key data for string keys (accel.FoldHash).
func emitHash(b *isa.Builder, cfg KVStoreConfig) {
	if cfg.KeyWords == 0 {
		b.Mul(isa.R(kvH), isa.R(kvKey), isa.R(kvMult))
		b.And(isa.R(kvH), isa.R(kvH), isa.R(kvMask))
		return
	}
	b.MovI(isa.R(kvH), 0)
	for w := 0; w < cfg.KeyWords; w++ {
		b.Load(isa.R(kvW), isa.R(kvKey), int64(w)*8)
		b.Xor(isa.R(kvH), isa.R(kvH), isa.R(kvW))
		b.Mul(isa.R(kvH), isa.R(kvH), isa.R(kvMult))
	}
	b.And(isa.R(kvH), isa.R(kvH), isa.R(kvMask))
}

// emitProbeAddr computes the bucket address kvA = tab + kvH*16.
func emitProbeAddr(b *isa.Builder) {
	b.Shl(isa.R(kvA), isa.R(kvH), isa.R(kvFour))
	b.Add(isa.R(kvA), isa.R(kvTab), isa.R(kvA))
}

// emitSoftwareLookup inlines the probe loop: result value in kvVal
// (0 when absent).
func emitSoftwareLookup(b *isa.Builder, cfg KVStoreConfig, site int) {
	loop := fmt.Sprintf("kvl%d", site)
	found := fmt.Sprintf("kvlf%d", site)
	miss := fmt.Sprintf("kvlm%d", site)
	done := fmt.Sprintf("kvld%d", site)
	emitHash(b, cfg)
	b.Label(loop)
	emitProbeAddr(b)
	b.Load(isa.R(kvS), isa.R(kvA), 0)
	b.Beq(isa.R(kvS), isa.R(kvKey), found)
	b.Beq(isa.R(kvS), isa.RZero, miss)
	b.AddI(isa.R(kvH), isa.R(kvH), 1)
	b.And(isa.R(kvH), isa.R(kvH), isa.R(kvMask))
	b.Jmp(loop)
	b.Label(found)
	b.Load(isa.R(kvVal), isa.R(kvA), 8)
	b.Jmp(done)
	b.Label(miss)
	b.MovI(isa.R(kvVal), 0)
	b.Label(done)
}

// emitSoftwareInsert inlines the probe loop: inserts {kvKey, kvVal},
// updating in place on a key match.
func emitSoftwareInsert(b *isa.Builder, cfg KVStoreConfig, site int) {
	loop := fmt.Sprintf("kvi%d", site)
	place := fmt.Sprintf("kvip%d", site)
	update := fmt.Sprintf("kviu%d", site)
	emitHash(b, cfg)
	b.Label(loop)
	emitProbeAddr(b)
	b.Load(isa.R(kvS), isa.R(kvA), 0)
	b.Beq(isa.R(kvS), isa.R(kvKey), update)
	b.Beq(isa.R(kvS), isa.RZero, place)
	b.AddI(isa.R(kvH), isa.R(kvH), 1)
	b.And(isa.R(kvH), isa.R(kvH), isa.R(kvMask))
	b.Jmp(loop)
	b.Label(place)
	b.Store(isa.R(kvKey), isa.R(kvA), 0)
	b.Label(update)
	b.Store(isa.R(kvVal), isa.R(kvA), 8)
}

// dumpTableInit seeds the initial table image from the functionally
// pre-populated memory.
func dumpTableInit(b *isa.Builder, image *isa.Memory, buckets int) {
	for i := 0; i < buckets; i++ {
		addr := uint64(kvTableBase) + uint64(i)*16
		if k := image.Load(addr); k != 0 {
			b.InitWord(addr, k)
			b.InitWord(addr+8, image.Load(addr+8))
		}
	}
}
