package sim

import "sort"

// Issue select and wakeup (see DESIGN.md "Issue select and wakeup").
//
// The issue, wake and store-to-load forwarding paths never walk the ROB.
// They work off four derived structures instead:
//
//   - ready: the issue candidates, one bit per ROB slot. Age order is slot
//     order rotated from the ROB head, so issue walks the set bits oldest
//     first a word at a time. A waiting entry is a candidate when all its
//     operands are ready, or when it is a store whose base is ready but
//     whose address is still unknown (the issue scan resolves it on
//     arrival). Every other waiting entry has no effect on the scan except
//     the ordering hazards below. Enroll and wake set a slot's bit, issue
//     clears it when the entry issues or stops being a candidate, and
//     squash clears the squashed slots; nothing is inserted or compacted,
//     and a free slot's bit is always clear.
//   - consumer lists: per ROB slot, the source operands waiting on that
//     entry's result, newest first, so wake costs O(consumers).
//   - writers: the in-flight stores and TCA calls, oldest first, the only
//     entries forwarding and the TCA memory overlay look at.
//   - wm: one sequence-number watermark per ordering hazard, naming the
//     oldest entry that raises it (noSeq when none does). A candidate sees
//     a hazard exactly when the watermark is older than it.
//
// Each entry's opcode class is cached in robHot.fl at dispatch (rob.go),
// so these paths test flag bits rather than re-deriving the class.
//
// Every structure is a function of the ROB slabs alone: enroll adds each
// dispatched entry, the stages update them as entries issue, resolve and
// squash, and rebuildSched recomputes them on checkpoint restore, so a
// Checkpoint carries none of this.

// noSeq is the watermark value for "no entry raises this hazard": it is
// younger than every real sequence number.
const noSeq = ^uint64(0)

// Consumer lists are intrusive singly linked lists threaded through the
// operands themselves, so they never allocate. Source src of the entry in
// ROB slot s is link s*3+src; consHead[p] is the newest operand waiting on
// the entry in slot p and consNext[link] the next older one; noLink ends a
// list. Newest-first order makes the operands a squash removes a prefix.
const noLink = -1

// linkOf names source operand src of the entry in ROB slot slot.
func linkOf(slot, src int) int32 { return int32(slot*3 + src) }

// hazard names one ordering-hazard watermark.
type hazard uint8

const (
	hzStore     hazard = iota // oldest waiting store
	hzStoreAddr               // oldest waiting store with an unknown address
	hzAccel                   // oldest waiting (unstarted) TCA call
	hzLowConf                 // oldest unresolved low-confidence branch (partial speculation only)
	numHazards
)

// Set membership only ever shrinks over an entry's life (a store resolves
// its address and issues, a call starts, a branch resolves), and new
// members enter only at dispatch, as the youngest entry. So a watermark
// moves toward younger entries until a squash clears it, and advancing it
// costs amortized O(1) per dispatched instruction.

// raises reports whether the entry at ROB position pos belongs to hazard
// k's set.
func (c *Core) raises(k hazard, pos int) bool {
	h := c.rob.hotAt(pos)
	switch k {
	case hzStore:
		return h.state == sWaiting && h.fl&flStore != 0
	case hzStoreAddr:
		return h.state == sWaiting && h.fl&flStore != 0 && !c.rob.at(pos).addrKnown
	case hzAccel:
		return h.state == sWaiting && h.fl&flAccel != 0
	default:
		return c.partial && h.fl&flCondBranch != 0 && h.state != sDone && !c.rob.at(pos).predConfident
	}
}

// advance moves watermark k past the entry at pos, which has just left
// the hazard's set, to the oldest remaining member.
func (c *Core) advance(k hazard, pos int) {
	c.wm[k] = noSeq
	for i := pos + 1; i < c.rob.len(); i++ {
		if c.raises(k, i) {
			c.wm[k] = c.rob.hotAt(i).seq
			return
		}
	}
}

// isCandidate reports whether an entry belongs in the ready set.
func isCandidate(h *robHot, e *robEntry) bool {
	if h.state != sWaiting {
		return false
	}
	if h.pendMask == 0 {
		return true
	}
	return h.fl&flStore != 0 && h.pendMask&uint8(flSrc1) == 0 && !e.addrKnown
}

// markReady and unmarkReady set and clear ROB slot slot's ready bit.
func (c *Core) markReady(slot int)   { c.ready[slot>>6] |= 1 << uint(slot&63) }
func (c *Core) unmarkReady(slot int) { c.ready[slot>>6] &^= 1 << uint(slot&63) }

// enroll adds the entry at ROB position pos to the derived structures. It
// must be the youngest entry enrolled so far: dispatch enrolls each new
// entry, rebuildSched every resident entry oldest first.
func (c *Core) enroll(pos int) {
	h, e := c.rob.hotAt(pos), c.rob.at(pos)
	slot := c.rob.slot(pos)
	c.consHead[slot] = noLink
	if isCandidate(h, e) {
		c.markReady(slot)
	}
	if h.fl&(flStore|flAccel) != 0 {
		c.writers.push(h.seq)
	}
	if h.fl&(flStore|flAccel|flCondBranch) != 0 { // only these raise hazards
		for k := range c.wm {
			if c.wm[k] == noSeq && c.raises(hazard(k), pos) {
				c.wm[k] = h.seq
			}
		}
	}
	for s := range e.srcs {
		if h.pendMask&(1<<uint(s)) != 0 {
			ps := c.rob.slot(c.rob.indexOf(e.srcs[s].producer))
			l := linkOf(slot, s)
			c.consNext[l] = c.consHead[ps]
			c.consHead[ps] = l
		}
	}
}

// rebuildSched recomputes every derived structure from the ROB slabs.
func (c *Core) rebuildSched() {
	clear(c.ready)
	c.writers.n = 0
	for k := range c.wm {
		c.wm[k] = noSeq
	}
	for i := 0; i < c.rob.len(); i++ {
		c.enroll(i)
	}
}

// squashSched drops every entry from ROB position first on (all younger
// than the survivors) from the ready set, the writer list and the
// watermarks. Consumer lists are trimmed per squashed operand by
// squashAfter.
func (c *Core) squashSched(first int) {
	keepSeq := c.rob.hotAt(first - 1).seq
	for i := first; i < c.rob.len(); i++ {
		c.unmarkReady(c.rob.slot(i))
	}
	for c.writers.n > 0 && c.writers.at(c.writers.n-1) > keepSeq {
		c.writers.n--
	}
	for k := range c.wm {
		if c.wm[k] > keepSeq {
			c.wm[k] = noSeq
		}
	}
}

// seqRing is a fixed-capacity FIFO of sequence numbers, oldest first.
type seqRing struct {
	buf  []uint64
	mask int
	head int
	n    int
}

// newSeqRing returns an empty ring; size must be a power of two.
func newSeqRing(size int) seqRing {
	return seqRing{buf: make([]uint64, size), mask: size - 1}
}

func (r *seqRing) push(s uint64) {
	r.buf[(r.head+r.n)&r.mask] = s
	r.n++
}

func (r *seqRing) popFront() {
	r.head = (r.head + 1) & r.mask
	r.n--
}

// at returns the i'th oldest element.
func (r *seqRing) at(i int) uint64 { return r.buf[(r.head+i)&r.mask] }

// countBelow returns how many elements are older than seq.
func (r *seqRing) countBelow(seq uint64) int {
	return sort.Search(r.n, func(i int) bool { return r.at(i) >= seq })
}
