package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/isa"
)

// MatMulConfig parameterizes the §V-C dense matrix-multiplication
// benchmark: C = A·B over N×N float64 matrices computed through
// Block×Block cache-resident sub-matrices, with the inner kernel either
// element-wise software (baseline) or a Tile×Tile multiply-accumulate TCA.
type MatMulConfig struct {
	// N is the matrix edge. The paper uses 512; smaller sizes preserve
	// the blocking structure and are practical on a software simulator.
	N int
	// Block is the cache-blocking factor (32 in the paper: two input and
	// one output 32x32 float64 tiles are 24 KiB, fitting a 32 KiB L1).
	Block int
	// Tile is the TCA's sub-matrix edge: 2, 4 or 8.
	Tile int
	// Seed drives the matrix contents.
	Seed int64
}

// Validate reports configuration errors.
func (c MatMulConfig) Validate() error {
	switch {
	case c.N < 2 || c.Block < 2 || c.Tile < 2:
		return fmt.Errorf("workload: matmul dims too small (N=%d B=%d t=%d)", c.N, c.Block, c.Tile)
	case c.N%c.Block != 0:
		return fmt.Errorf("workload: N=%d not divisible by block=%d", c.N, c.Block)
	case c.Block%c.Tile != 0:
		return fmt.Errorf("workload: block=%d not divisible by tile=%d", c.Block, c.Tile)
	case c.Tile != 2 && c.Tile != 4 && c.Tile != 8:
		return fmt.Errorf("workload: tile=%d unsupported (want 2/4/8)", c.Tile)
	}
	return nil
}

// Matrix base addresses.
const (
	matABase = 0x0100_0000
	matBBase = 0x0400_0000
	matCBase = 0x0700_0000
)

// Matmul register plan.
const (
	mrBI, mrBJ, mrBK = 1, 2, 3 // block indices (counting down)
	mrI, mrJ, mrK    = 4, 5, 6 // in-block indices (counting down)
	mrRowA           = 8       // &A[row][bk*B]
	mrRowC           = 9       // &C[row][bj*B]
	mrColB           = 10      // &B[bk*B][bj*B + j]
	mrPA, mrPB       = 11, 12  // moving element pointers
	mrPC             = 13      // &C[row][bj*B + j]
	mrT1, mrT2       = 14, 15
	mrBlkA           = 22 // &A[bi*B][bk*B] for the current block triple
	mrBlkB           = 23 // &B[bk*B][bj*B]
	mrBlkC           = 24 // &C[bi*B][bj*B]
	mrStrideN        = 25 // N*8 (row stride in bytes)
	mrConst8         = 26
	mrTileA          = 27 // tile pointers for the accelerated kernel
	mrTileB          = 28
	mrTileC          = 29
)

// MatMul builds the benchmark pair and measures the baseline's dynamic
// instruction accounting with the functional interpreter (the kernel is
// loop-structured, so static counts do not equal dynamic counts).
func MatMul(cfg MatMulConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base, regionLo, regionHi := buildMatMul(cfg, false)
	acc, _, _ := buildMatMul(cfg, true)

	// Measure total and in-region dynamic counts on the golden model.
	it, err := isa.NewInterp(base, nil)
	if err != nil {
		return nil, fmt.Errorf("workload: matmul baseline measurement: %w", err)
	}
	ridx := it.CountRange(regionLo, regionHi)
	if err := it.Run(1 << 62); err != nil {
		return nil, fmt.Errorf("workload: matmul baseline measurement: %w", err)
	}

	nb := cfg.N / cfg.Block
	tilesPerBlock := cfg.Block / cfg.Tile
	invocations := uint64(nb) * uint64(nb) * uint64(nb) *
		uint64(tilesPerBlock) * uint64(tilesPerBlock) * uint64(tilesPerBlock)

	w := &Workload{
		Name: fmt.Sprintf("matmul-%dx%d", cfg.Tile, cfg.Tile),
		Description: fmt.Sprintf("%dx%d DGEMM, %dx%d blocking, %dx%d TCA",
			cfg.N, cfg.N, cfg.Block, cfg.Block, cfg.Tile, cfg.Tile),
		Baseline:             base,
		Accelerated:          acc,
		Acceleratable:        it.RangeCount(ridx),
		Invocations:          invocations,
		BaselineInstructions: it.Stats.Retired,
		NewDevice: func() isa.AccelDevice {
			return accel.NewMatMul(cfg.Tile, uint64(cfg.N)*8)
		},
		DeviceKey: fmt.Sprintf("matmul:tile=%d,stride=%d", cfg.Tile, uint64(cfg.N)*8),
		// Latency is memory-dependent; the harness measures it from the
		// simulator's event trace instead of assuming one.
		AccelLatency: 0,
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// buildMatMul emits the blocked kernel. It returns the program and the
// static PC range of the acceleratable region (the in-block multiply) in
// the baseline variant.
func buildMatMul(cfg MatMulConfig, accelerated bool) (prog *isa.Program, regionLo, regionHi int) {
	b := isa.NewBuilder()
	initMatrices(b, cfg)

	n64 := int64(cfg.N)
	blk := int64(cfg.Block)
	nb := int64(cfg.N / cfg.Block)

	b.MovI(isa.R(mrStrideN), n64*8)
	b.MovI(isa.R(mrConst8), 8)

	// Block loops count down from nb to 1; the live index is (nb - reg).
	b.MovI(isa.R(mrBI), nb)
	b.Label("bi")
	b.MovI(isa.R(mrBJ), nb)
	b.Label("bj")
	b.MovI(isa.R(mrBK), nb)
	b.Label("bk")

	// Block base addresses:
	//   blkA = A + ((nb-bi)*B*N + (nb-bk)*B)*8
	//   blkB = B + ((nb-bk)*B*N + (nb-bj)*B)*8
	//   blkC = C + ((nb-bi)*B*N + (nb-bj)*B)*8
	emitBlockBase(b, mrBlkA, matABase, mrBI, mrBK, nb, blk, n64)
	emitBlockBase(b, mrBlkB, matBBase, mrBK, mrBJ, nb, blk, n64)
	emitBlockBase(b, mrBlkC, matCBase, mrBI, mrBJ, nb, blk, n64)

	if accelerated {
		emitTileLoops(b, cfg)
	} else {
		regionLo = b.Len()
		emitBlockMultiply(b, cfg)
		regionHi = b.Len()
	}

	b.AddI(isa.R(mrBK), isa.R(mrBK), -1)
	b.Bne(isa.R(mrBK), isa.RZero, "bk")
	b.AddI(isa.R(mrBJ), isa.R(mrBJ), -1)
	b.Bne(isa.R(mrBJ), isa.RZero, "bj")
	b.AddI(isa.R(mrBI), isa.R(mrBI), -1)
	b.Bne(isa.R(mrBI), isa.RZero, "bi")
	b.Halt()
	return b.MustBuild(), regionLo, regionHi
}

// emitBlockBase computes base + ((nb-rowCtr)*B*N + (nb-colCtr)*B)*8 into
// dst using mrT1/mrT2 as scratch.
func emitBlockBase(b *isa.Builder, dst int, base int64, rowCtr, colCtr int, nb, blk, n int64) {
	b.MovI(isa.R(mrT1), nb)
	b.Sub(isa.R(mrT1), isa.R(mrT1), isa.R(rowCtr)) // nb - rowCtr
	b.MovI(isa.R(mrT2), blk*n*8)
	b.Mul(isa.R(mrT1), isa.R(mrT1), isa.R(mrT2))
	b.MovI(isa.R(mrT2), nb)
	b.Sub(isa.R(mrT2), isa.R(mrT2), isa.R(colCtr)) // nb - colCtr
	b.Mul(isa.R(mrT2), isa.R(mrT2), isa.R(dstScratch))
	b.Add(isa.R(mrT1), isa.R(mrT1), isa.R(mrT2))
	b.MovI(isa.R(dst), base)
	b.Add(isa.R(dst), isa.R(dst), isa.R(mrT1))
}

// dstScratch holds B*8, set once in initMatrices' epilogue.
const dstScratch = 30

// emitBlockMultiply is the software element-wise kernel over one B×B block
// triple: C_blk += A_blk * B_blk. This is the acceleratable region.
func emitBlockMultiply(b *isa.Builder, cfg MatMulConfig) {
	blk := int64(cfg.Block)
	// rowA = blkA; rowC = blkC
	b.Add(isa.R(mrRowA), isa.R(mrBlkA), isa.RZero)
	b.Add(isa.R(mrRowC), isa.R(mrBlkC), isa.RZero)
	b.MovI(isa.R(mrI), blk)
	b.Label("mm_i")
	{
		// colB = blkB; pC = rowC
		b.Add(isa.R(mrColB), isa.R(mrBlkB), isa.RZero)
		b.Add(isa.R(mrPC), isa.R(mrRowC), isa.RZero)
		b.MovI(isa.R(mrJ), blk)
		b.Label("mm_j")
		{
			// acc = *pC; pA = rowA; pB = colB
			b.FLoad(isa.F(0), isa.R(mrPC), 0)
			b.Add(isa.R(mrPA), isa.R(mrRowA), isa.RZero)
			b.Add(isa.R(mrPB), isa.R(mrColB), isa.RZero)
			b.MovI(isa.R(mrK), blk)
			b.Label("mm_k")
			{
				b.FLoad(isa.F(1), isa.R(mrPA), 0)
				b.FLoad(isa.F(2), isa.R(mrPB), 0)
				b.FMA(isa.F(0), isa.F(1), isa.F(2), isa.F(0))
				b.Add(isa.R(mrPA), isa.R(mrPA), isa.R(mrConst8))
				b.Add(isa.R(mrPB), isa.R(mrPB), isa.R(mrStrideN))
				b.AddI(isa.R(mrK), isa.R(mrK), -1)
				b.Bne(isa.R(mrK), isa.RZero, "mm_k")
			}
			b.FStore(isa.F(0), isa.R(mrPC), 0)
			b.Add(isa.R(mrPC), isa.R(mrPC), isa.R(mrConst8))
			b.Add(isa.R(mrColB), isa.R(mrColB), isa.R(mrConst8))
			b.AddI(isa.R(mrJ), isa.R(mrJ), -1)
			b.Bne(isa.R(mrJ), isa.RZero, "mm_j")
		}
		b.Add(isa.R(mrRowA), isa.R(mrRowA), isa.R(mrStrideN))
		b.Add(isa.R(mrRowC), isa.R(mrRowC), isa.R(mrStrideN))
		b.AddI(isa.R(mrI), isa.R(mrI), -1)
		b.Bne(isa.R(mrI), isa.RZero, "mm_i")
	}
}

// emitTileLoops is the accelerated kernel over one B×B block triple: loops
// over t×t tiles invoking the TCA for each (ti, tj, tk).
func emitTileLoops(b *isa.Builder, cfg MatMulConfig) {
	tiles := int64(cfg.Block / cfg.Tile)
	tileBytes := int64(cfg.Tile) * 8
	tileRows := int64(cfg.Tile) * int64(cfg.N) * 8

	// tileA row advances with ti and tk; tileB with tk and tj; tileC
	// with ti and tj. Loop ti (rows of C), tj (cols of C), tk (depth).
	b.MovI(isa.R(mrI), tiles)                      // ti counter
	b.Add(isa.R(mrRowA), isa.R(mrBlkA), isa.RZero) // &A[ti*t][bk*B]
	b.Add(isa.R(mrRowC), isa.R(mrBlkC), isa.RZero) // &C[ti*t][bj*B]
	b.Label("tl_i")
	{
		b.MovI(isa.R(mrJ), tiles) // tj counter
		b.Add(isa.R(mrTileC), isa.R(mrRowC), isa.RZero)
		b.Add(isa.R(mrColB), isa.R(mrBlkB), isa.RZero) // &B[bk*B][tj*t]
		b.Label("tl_j")
		{
			b.MovI(isa.R(mrK), tiles) // tk counter
			b.Add(isa.R(mrTileA), isa.R(mrRowA), isa.RZero)
			b.Add(isa.R(mrTileB), isa.R(mrColB), isa.RZero)
			b.Label("tl_k")
			{
				b.Accel(isa.RZero, accel.MatMulMAC,
					isa.R(mrTileA), isa.R(mrTileB), isa.R(mrTileC))
				b.AddI(isa.R(mrTileA), isa.R(mrTileA), tileBytes)
				b.AddI(isa.R(mrTileB), isa.R(mrTileB), tileRows)
				b.AddI(isa.R(mrK), isa.R(mrK), -1)
				b.Bne(isa.R(mrK), isa.RZero, "tl_k")
			}
			b.AddI(isa.R(mrTileC), isa.R(mrTileC), tileBytes)
			b.AddI(isa.R(mrColB), isa.R(mrColB), tileBytes)
			b.AddI(isa.R(mrJ), isa.R(mrJ), -1)
			b.Bne(isa.R(mrJ), isa.RZero, "tl_j")
		}
		b.AddI(isa.R(mrRowA), isa.R(mrRowA), tileRows)
		b.AddI(isa.R(mrRowC), isa.R(mrRowC), tileRows)
		b.AddI(isa.R(mrI), isa.R(mrI), -1)
		b.Bne(isa.R(mrI), isa.RZero, "tl_i")
	}
}

// initMatrices fills A and B with small deterministic integers (so the
// differently-associated software and TCA accumulations agree exactly in
// float64) and zeroes C implicitly.
func initMatrices(b *isa.Builder, cfg MatMulConfig) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			off := uint64(i*n+j) * 8
			b.InitFloat(matABase+off, float64(rng.Intn(16)))
			b.InitFloat(matBBase+off, float64(rng.Intn(16)))
		}
	}
	// dstScratch = B*8 for block-base computations.
	b.MovI(isa.R(dstScratch), int64(cfg.Block)*8)
}
