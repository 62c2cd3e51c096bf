package sim

import "repro/internal/isa"

// entryState tracks an instruction's progress through the backend.
type entryState uint8

const (
	// sWaiting: dispatched, in the issue queue, not yet executing.
	sWaiting entryState = iota
	// sIssued: executing; result arrives at readyCycle.
	sIssued
	// sDone: execution complete; eligible to commit after CommitDelay.
	sDone
)

// operand is one renamed source: either the value is known, or the entry's
// pendMask bit for this source is set and producer names the sequence number
// being waited on.
type operand struct {
	producer uint64
	value    uint64
}

// robHot is the per-entry state the busy-cycle paths touch most: issue
// reads state, fl and pendMask of each candidate, wakeup clears pendMask
// bits, completion matches seq and readyCycle, watermark advances
// (sched.go) probe fl and state, and the horizon probes state/readyCycle.
// Packing these into their own slab keeps those reads to a few cache lines
// instead of dragging the full entry (robEntry, several lines each)
// through cache.
type robHot struct {
	seq        uint64
	readyCycle int64
	op         isa.Op
	fl         opFlags // the opcode's class, set once at dispatch
	state      entryState
	// pendMask has bit i set while source i waits on a producer
	// (srcs[i].producer in the cold entry). All sources ready == 0.
	pendMask uint8
}

// robEntry is the cold remainder of one in-flight instruction: fields
// touched once or twice per instruction (dispatch, execute, commit) rather
// than per scan cycle.
type robEntry struct {
	pc            int
	in            isa.Instruction
	dispatchCycle int64
	issueCycle    int64

	// srcs correspond to Src1, Src2, Src3; only fields named by the
	// entry's flSrcs bits are meaningful.
	srcs [3]operand

	val uint64 // result value

	// Branch bookkeeping.
	predTaken     bool
	predConfident bool // prediction was high confidence at fetch
	actualTaken   bool
	nextPC        int // resolved next pc
	mispredict    bool

	// Memory bookkeeping.
	addrKnown bool
	addr      uint64
	storeData uint64
	forwarded bool

	// Accelerator bookkeeping. The invocation's pending stores live in the
	// core's shared accelStores arena as the range
	// [storeOff, storeOff+storeCount) — see Core.accelStoresOf.
	accelStarted bool
	accelHasMark bool
	accelMark    int
	storeOff     int
	storeCount   int
	accelMemOps  int
	accelStart   int64
	accelHeld    int64 // cycles held ready by the NL restriction
}

// opFlags caches an entry's opcode class on robHot, so the issue,
// dispatch, commit, squash and hazard paths test a bit instead of
// re-deriving the class from isa.Op per dynamic instruction. The low three
// bits are the source mask, in pendMask's bit order.
type opFlags uint8

const (
	flSrc1       opFlags = 1 << iota // reads Src1
	flSrc2                           // reads Src2
	flSrc3                           // reads Src3
	flLoad                           // isa.Op.IsLoad
	flStore                          // isa.Op.IsStore
	flCondBranch                     // isa.Op.IsCondBranch
	flAccel                          // isa.OpAccel
	flDst                            // writes a register: Instruction.HasDst, set per instruction at dispatch

	flSrcs = flSrc1 | flSrc2 | flSrc3
	flMem  = flLoad | flStore
)

// opClass is every opcode's flags except flDst, which depends on the
// instruction's Dst field. It spans every byte so an isa.Op indexes it
// without a bounds check; opcodes Program.Validate rejects never reach it.
var opClass = func() (t [256]opFlags) {
	for i := range t {
		op := isa.Op(i)
		switch op {
		case isa.OpNop, isa.OpHalt, isa.OpMovI, isa.OpFMovI, isa.OpJmp:
		case isa.OpAddI, isa.OpLoad, isa.OpFLoad:
			t[i] = flSrc1
		case isa.OpFMA, isa.OpAccel:
			t[i] = flSrcs
		default:
			t[i] = flSrc1 | flSrc2
		}
		if op.IsLoad() {
			t[i] |= flLoad
		}
		if op.IsStore() {
			t[i] |= flStore
		}
		if op.IsCondBranch() {
			t[i] |= flCondBranch
		}
		if op == isa.OpAccel {
			t[i] |= flAccel
		}
	}
	return t
}()

// robQueue is a ring buffer of in-flight instructions, oldest first, split
// into parallel hot/cold slabs indexed identically (struct-of-arrays).
// Sequence numbers of resident entries are contiguous, so lookup by seq is
// O(1). The backing arrays are a power of two so position arithmetic is a
// mask, which matters: hotAt() is the simulator's hottest operation.
type robQueue struct {
	hot   []robHot
	cold  []robEntry
	mask  int
	head  int
	count int
	limit int // architectural capacity (<= len(hot))
}

func newROBQueue(capacity int) *robQueue {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &robQueue{
		hot:   make([]robHot, size),
		cold:  make([]robEntry, size),
		mask:  size - 1,
		limit: capacity,
	}
}

func (q *robQueue) len() int   { return q.count }
func (q *robQueue) full() bool { return q.count == q.limit }

// slot returns the backing-array index of the i'th oldest entry; per-slot
// side tables (Core.ready, Core.consHead) are indexed by it.
func (q *robQueue) slot(i int) int { return (q.head + i) & q.mask }

// hotAt returns the i'th oldest entry's hot state (0 = head).
func (q *robQueue) hotAt(i int) *robHot {
	return &q.hot[(q.head+i)&q.mask]
}

// at returns the i'th oldest entry's cold state (0 = head).
func (q *robQueue) at(i int) *robEntry {
	return &q.cold[(q.head+i)&q.mask]
}

// indexOf returns the position (0 = head) of the resident entry with the
// given sequence number, or -1. Residents are seq-contiguous, so this is
// O(1).
func (q *robQueue) indexOf(seq uint64) int {
	if q.count == 0 {
		return -1
	}
	first := q.hotAt(0).seq
	if seq < first || seq >= first+uint64(q.count) {
		return -1
	}
	return int(seq - first)
}

// push appends a new entry and returns both halves for initialization.
func (q *robQueue) push() (*robHot, *robEntry) {
	i := (q.head + q.count) & q.mask
	q.count++
	return &q.hot[i], &q.cold[i]
}

// popHead removes the oldest entry.
func (q *robQueue) popHead() {
	q.head = (q.head + 1) & q.mask
	q.count--
}

// truncate keeps only the n oldest entries (squash).
func (q *robQueue) truncate(n int) {
	q.count = n
}
