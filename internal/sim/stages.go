package sim

import (
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/isa"
)

// issue walks the ready set oldest-first and starts execution of ready
// instructions, up to IssueWidth per cycle. The oldest-first order gives
// age priority at the shared memory ports. Ordering hazards come from the
// watermarks (sched.go), which this walk moves as it issues stores,
// resolves store addresses and starts TCA calls, so each candidate sees
// exactly the hazards its older entries still raise at its turn.
//
// The walk covers the resident slots from the head in runs that end at a
// word boundary or at the ring's end, whichever is first (a ring smaller
// than 64 slots wraps inside one word), taking each run's bits from a
// copy of its word: issuing never makes another entry a candidate, so the
// copy stays exact while the walk clears bits behind it.
func (c *Core) issue() {
	size := len(c.rob.hot)
	slot, pos, left := c.rob.head, 0, c.rob.len()
	issued := 0
	for left > 0 && issued < c.cfg.IssueWidth {
		off := slot & 63
		n := min(64-off, size-slot, left)
		w := c.ready[slot>>6] >> uint(off)
		if n < 64 {
			w &= 1<<uint(n) - 1
		}
		for ; w != 0 && issued < c.cfg.IssueWidth; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			s, p := slot+b, pos+b
			h, e := &c.rob.hot[s], &c.rob.cold[s]
			seq := h.seq
			ok := false
			switch {
			case h.fl&flAccel != 0:
				accelOlder := c.wm[hzAccel] < seq
				ok = c.tryStartAccel(p, h, e, c.wm[hzStore] < seq, accelOlder,
					c.devMem && accelOlder, c.wm[hzLowConf] < seq)
				if ok && c.wm[hzAccel] == seq {
					c.advance(hzAccel, p)
				}
			case h.fl&flLoad != 0:
				storeHazard := c.wm[hzStoreAddr] < seq
				if c.cfg.ConservativeLoadOrdering {
					storeHazard = c.wm[hzStore] < seq
				}
				ok = c.tryIssueLoad(h, e, storeHazard, c.devMem && c.wm[hzAccel] < seq)
			case h.fl&flStore != 0:
				// Store address generation is decoupled from the data:
				// the address resolves as soon as the base register is
				// ready, letting younger loads disambiguate early the
				// way real LSQs do. (A store with an unknown address is
				// a candidate only once its base is ready.)
				if !e.addrKnown {
					e.addr = e.operandValue(0) + uint64(e.in.Imm)
					e.addrKnown = true
					c.quiet = false // a state change even when the store stays waiting
				}
				ok = c.tryIssueStore(h, e)
				if c.wm[hzStoreAddr] == seq {
					c.advance(hzStoreAddr, p)
				}
				if ok && c.wm[hzStore] == seq {
					c.advance(hzStore, p)
				}
			default:
				ok = c.tryIssueSimple(h, e)
			}
			if ok {
				e.issueCycle = c.now
				c.iqCount--
				c.issuedCount++
				c.noteIssued(h)
				c.quiet = false
				issued++
			}
			if !isCandidate(h, e) { // issued, or a store now waiting on its data
				c.unmarkReady(s)
			}
		}
		slot = (slot + n) & c.rob.mask
		pos += n
		left -= n
	}
}

// tryIssueSimple handles ALU, FP, branch, and immediate-move instructions.
func (c *Core) tryIssueSimple(h *robHot, e *robEntry) bool {
	if h.pendMask != 0 {
		return false
	}
	op := h.op
	x := &c.exec[op]
	busyUntil := c.now + 1
	if x.unpipelined {
		busyUntil = c.now + x.lat
	}
	if !c.grabFU(x.fu, busyUntil) {
		return false
	}
	h.state = sIssued
	h.readyCycle = c.now + x.lat

	switch {
	case h.fl&flCondBranch != 0:
		e.actualTaken = isa.EvalBranch(op, e.operandValue(0), e.operandValue(1))
		if e.actualTaken {
			e.nextPC = int(e.in.Imm)
		} else {
			e.nextPC = e.pc + 1
		}
		predNext := e.pc + 1
		if e.predTaken {
			predNext = int(e.in.Imm)
		}
		e.mispredict = e.nextPC != predNext
	case op == isa.OpMovI || op == isa.OpFMovI:
		e.val = uint64(e.in.Imm)
	case op == isa.OpAddI:
		e.val = e.operandValue(0) + uint64(e.in.Imm)
	case op == isa.OpFMA:
		e.val = fmaBits(e.operandValue(0), e.operandValue(1), e.operandValue(2))
	case op == isa.OpNop || op == isa.OpJmp:
		// no result
	case op.IsFP():
		e.val = isa.EvalFP(op, e.operandValue(0), e.operandValue(1))
	default:
		e.val = isa.EvalALU(op, e.operandValue(0), e.operandValue(1))
	}
	return true
}

// tryIssueStore completes a store's address and data capture; the memory
// write happens at commit.
func (c *Core) tryIssueStore(h *robHot, e *robEntry) bool {
	if h.pendMask != 0 {
		return false
	}
	h.state = sIssued
	h.readyCycle = c.now + 1
	e.addr = e.operandValue(0) + uint64(e.in.Imm)
	e.storeData = e.operandValue(1)
	e.addrKnown = true
	return true
}

// forwardStatus is the outcome of searching older in-flight writes.
type forwardStatus uint8

const (
	fwdNone  forwardStatus = iota // no older write to the word
	fwdHit                        // forwardable value found
	fwdBlock                      // matching older store's data not ready yet
)

// tryIssueLoad issues a load once every older store's address is known
// (decoupled store AGU) and every older memory-using TCA has produced its
// stores. Matching older writes forward their data; otherwise the load
// goes to the cache through a shared port.
func (c *Core) tryIssueLoad(h *robHot, e *robEntry, olderStoreAddrUnknown, olderMemAccelPending bool) bool {
	if h.pendMask != 0 || olderStoreAddrUnknown || olderMemAccelPending {
		return false
	}
	e.addr = e.operandValue(0) + uint64(e.in.Imm)
	e.addrKnown = true
	word := e.addr >> 3

	// Newest older write to the same word wins.
	v, when, status := c.forwardScan(h.seq, word)
	switch status {
	case fwdBlock:
		return false
	case fwdHit:
		h.state = sIssued
		e.forwarded = true
		e.val = v
		h.readyCycle = max(c.now+2, when+1)
		return true
	}
	h.state = sIssued
	grant := c.portGrant(c.now + 1) // one AGU cycle, then the port
	h.readyCycle = c.hier.Access(grant, e.addr, false)
	e.val = c.mem.Load(e.addr)
	return true
}

// forwardScan looks newest-first through the in-flight writes older than
// the load with sequence number seq for the given word address. A matching
// store that has not captured its data yet blocks the load (fwdBlock).
func (c *Core) forwardScan(seq uint64, word uint64) (val uint64, when int64, status forwardStatus) {
	first := c.rob.hotAt(0).seq
	for j := c.writers.countBelow(seq) - 1; j >= 0; j-- {
		i := int(c.writers.at(j) - first)
		oh := c.rob.hotAt(i)
		switch {
		case oh.fl&flStore != 0:
			o := c.rob.at(i)
			if !o.addrKnown || o.addr>>3 != word {
				continue
			}
			if oh.state == sWaiting {
				return 0, 0, fwdBlock
			}
			return o.storeData, oh.readyCycle, fwdHit
		default:
			o := c.rob.at(i)
			if !o.accelStarted {
				continue
			}
			stores := c.accelStoresOf(o)
			for j := len(stores) - 1; j >= 0; j-- {
				if stores[j].Addr>>3 == word {
					return stores[j].Data, oh.readyCycle, fwdHit
				}
			}
		}
	}
	return 0, 0, fwdNone
}

// dispatch moves instructions from the front-end queue into the ROB and
// issue queue, renaming their sources. It models the NT barrier: while a
// non-trailing TCA is in flight, dispatch is frozen.
func (c *Core) dispatch() {
	// Each stall return records the incremented counter: on a quiet cycle
	// dispatch increments exactly one, and the cause is pinned until the
	// event horizon, so fastForward replicates it per skipped cycle.
	for n := 0; n < c.cfg.DispatchWidth; n++ {
		if c.barrierActive {
			c.stats.DispatchStalls.Barrier++
			c.cycleStall = &c.stats.DispatchStalls.Barrier
			return
		}
		if c.fetchHead >= len(c.fetchQ) || c.fetchQ[c.fetchHead].availAt > c.now {
			c.stats.DispatchStalls.FrontEnd++
			c.cycleStall = &c.stats.DispatchStalls.FrontEnd
			return
		}
		if c.rob.full() {
			c.stats.DispatchStalls.ROBFull++
			c.cycleStall = &c.stats.DispatchStalls.ROBFull
			return
		}
		if c.iqCount >= c.cfg.IQSize {
			c.stats.DispatchStalls.IQFull++
			c.cycleStall = &c.stats.DispatchStalls.IQFull
			return
		}
		f := c.fetchQ[c.fetchHead]
		fl := opClass[f.in.Op]
		if fl&flMem != 0 && c.lsqCount >= c.cfg.LSQSize {
			c.stats.DispatchStalls.LSQFull++
			c.cycleStall = &c.stats.DispatchStalls.LSQFull
			return
		}
		c.fetchHead++
		c.quiet = false

		if f.in.HasDst() {
			fl |= flDst
		}
		h, e := c.rob.push()
		*h = robHot{
			seq:        c.seq,
			op:         f.in.Op,
			fl:         fl,
			state:      sWaiting,
			readyCycle: c.now,
		}
		// Clear then fill in place: a composite literal here would be
		// built in a temporary and block-copied into the slab.
		*e = robEntry{}
		e.pc = f.pc
		e.in = f.in
		e.dispatchCycle = c.now
		e.predTaken = f.predTaken
		e.predConfident = f.predConfident
		c.seq++

		// Rename sources.
		fields := [3]isa.Reg{f.in.Src1, f.in.Src2, f.in.Src3}
		for i, r := range fields {
			if fl&(1<<uint(i)) == 0 || r == isa.RZero {
				continue
			}
			if rn := c.rename[r]; rn.valid {
				if pi := c.rob.indexOf(rn.seq); pi >= 0 {
					if c.rob.hotAt(pi).state != sDone {
						e.srcs[i] = operand{producer: rn.seq}
						h.pendMask |= 1 << uint(i)
					} else {
						e.srcs[i] = operand{value: c.rob.at(pi).val}
					}
					continue
				}
			}
			e.srcs[i] = operand{value: c.arf[r]}
		}
		if fl&flDst != 0 {
			c.rename[f.in.Dst].valid = true
			c.rename[f.in.Dst].seq = h.seq
		}

		switch f.in.Op {
		case isa.OpHalt:
			// Halt needs no execution.
			h.state = sDone
			e.issueCycle = c.now
		case isa.OpAccel:
			c.accelDispatched = true
			c.iqCount++
			if !c.cfg.Mode.Trailing() {
				c.barrierActive = true
				c.barrierSeq = h.seq
			}
		default:
			c.iqCount++
		}
		if fl&flMem != 0 {
			c.lsqCount++
		}
		c.enroll(c.rob.len() - 1)
	}
}

// Instruction-side addressing: 4 bytes per instruction in a dedicated
// region far above data addresses, so I- and D-lines never alias in the
// shared L2.
const (
	instrBytes = 4
	iSpaceBase = uint64(1) << 40
)

// iLineOf returns the instruction-cache line index holding pc.
func (c *Core) iLineOf(pc int) int64 {
	return int64(pc) * instrBytes / 64
}

// fetch fills the front-end queue along the predicted path, paying
// instruction-cache latency at line boundaries when the I-side is modeled.
func (c *Core) fetch() {
	if c.fetchStopped || c.now < c.fetchResumeAt {
		return
	}
	capacity := c.cfg.FetchWidth * (c.cfg.FrontEndDepth + 2)
	// Reclaim the consumed prefix so appends reuse the backing array.
	if c.fetchHead > 0 {
		if c.fetchHead == len(c.fetchQ) {
			c.fetchQ = c.fetchQ[:0]
			c.fetchHead = 0
		} else if c.fetchHead >= capacity {
			n := copy(c.fetchQ, c.fetchQ[c.fetchHead:])
			c.fetchQ = c.fetchQ[:n]
			c.fetchHead = 0
		}
	}
	for n := 0; n < c.cfg.FetchWidth && len(c.fetchQ)-c.fetchHead < capacity; n++ {
		// Every path below changes state (stop, I-line switch, or an
		// append), so reaching the body at all marks the cycle active.
		c.quiet = false
		if c.fetchPC < 0 || c.fetchPC >= len(c.prog.Code) {
			// Wrong-path fetch ran off the program; stall until a
			// squash redirects fetch.
			c.fetchStopped = true
			return
		}
		if c.hier.IFetchEnabled() {
			if line := c.iLineOf(c.fetchPC); line != c.curFetchLine {
				c.curFetchLine = line
				addr := iSpaceBase + uint64(line)*64
				done := c.hier.IFetch(c.now, addr)
				if wait := done - int64(c.cfg.Memory.L1I.HitLatency); wait > c.now {
					// Line not ready: resume when it arrives. The hit
					// latency itself is folded into FrontEndDepth.
					c.fetchResumeAt = wait
					return
				}
			}
		}
		in := c.prog.Code[c.fetchPC]
		if in.Op == isa.OpAccel {
			// The first accel fetch (wrong-path included) is the warmup
			// boundary RunToAccelFetch pauses at: the appended OpAccel
			// cannot dispatch before the next cycle, so pausing at now+1
			// still precedes every suffix-config-dependent decision.
			c.sawAccelFetch = true
			if c.pauseOnAccelFetch {
				c.pauseAt = c.now + 1
			}
		}
		f := fetchedInst{pc: c.fetchPC, in: in, availAt: c.now + int64(c.cfg.FrontEndDepth)}
		c.stats.Fetched++
		switch {
		case in.Op == isa.OpHalt:
			c.fetchQ = append(c.fetchQ, f)
			c.fetchStopped = true
			return
		case in.Op == isa.OpJmp:
			c.fetchQ = append(c.fetchQ, f)
			c.fetchPC = int(in.Imm)
		case in.Op.IsCondBranch():
			f.predTaken = c.pred.Predict(uint64(c.fetchPC))
			f.predConfident = true
			if ce, ok := c.pred.(bpred.ConfidenceEstimator); ok {
				f.predConfident = ce.Confident(uint64(c.fetchPC))
			}
			c.fetchQ = append(c.fetchQ, f)
			if f.predTaken {
				c.fetchPC = int(in.Imm)
			} else {
				c.fetchPC++
			}
		default:
			c.fetchQ = append(c.fetchQ, f)
			c.fetchPC++
		}
	}
}
