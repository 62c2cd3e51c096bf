package scenario

import (
	"repro/internal/isa"
	"repro/internal/sim"
)

// Warm-checkpoint forking.
//
// A sweep varies post-warmup fields — Mode, PartialSpeculation,
// RecordAccelEvents — over one program on one core, so every variant
// re-executes an identical warmup prefix up to the first accelerator
// fetch. The store exploits that: the first cacheable miss of a warmup
// family runs the prefix once under Config.WarmupCanonical, snapshots
// the paused core, and every variant (including the first) resumes from
// the shared sim.Checkpoint instead of re-simulating the prefix. The
// snapshot-legality and prefix-identity arguments live in DESIGN.md
// ("Warm-state checkpointing"); the resulting Stats are bit-identical to
// a never-paused run, which the sim-level differential suite enforces.
//
// Forking keys on the warmup digest: the Spec digest with the canonical
// config replaced by its warmup-canonical form. Specs differing only in
// post-warmup fields collide on it — exactly the sharing we want. The
// shared checkpoint lives in the store's memory only, for the lifetime
// of the process; nothing about it is persisted, so there is no stale
// checkpoint to invalidate.

// minForkCycles gates forking: prefixes shorter than this resume in
// about the time they take to re-simulate, so the snapshot machinery
// would only add overhead.
const minForkCycles = 2_000

// warmupDigest is the spec's content address with post-warmup config
// fields erased: equal warmup digests mean bit-identical warmup
// prefixes, so the specs may share one warm checkpoint.
func (sp Spec) warmupDigest() Digest {
	e := newEncoder("ckpt")
	e.config(sp.Config.WarmupCanonical())
	e.programRef(sp.Program)
	e.bool(sp.NewDevice != nil)
	e.str(sp.DeviceKey)
	e.i64(sp.MaxCycles)
	return e.sum()
}

// WarmupFamily returns the digest grouping specs that share a warm
// checkpoint, and whether the spec participates in forking at all
// (cacheable and statically forkable). scenariod's scheduler uses it to
// batch compatible jobs: parking the rest of a family until its first
// member has produced the shared checkpoint keeps a burst of identical
// sweeps from pinning every worker on one singleflighted warmup.
func (sp Spec) WarmupFamily() (Digest, bool) {
	if !sp.Cacheable() || !sp.forkable() {
		return Digest{}, false
	}
	return sp.warmupDigest(), true
}

// forkable reports whether the warm-checkpoint path can apply at all:
// the program must invoke an accelerator (otherwise there is no warmup
// boundary to pause at) through a constructible device, and the prefix
// ahead of the first accelerator instruction must plausibly clear
// minForkCycles. When no backward branch precedes that instruction the
// prefix is straight-line, executing exactly its static length, so a
// short one is rejected here for free instead of by a probe simulation
// (the stock figure sweeps are all this shape). A loop in the prefix
// makes the static length a useless lower bound; the probe decides.
func (sp Spec) forkable() bool {
	if sp.NewDevice == nil {
		return false
	}
	loop := false
	for i, in := range sp.Program.Code {
		switch {
		case in.Op == isa.OpAccel:
			return loop || i >= minForkCycles
		case in.Op.IsBranch() && in.Imm <= int64(i):
			loop = true
		}
	}
	return false
}

// warmup runs the spec's warmup prefix under the warmup-canonical
// config and snapshots the core at the accel-fetch boundary. A nil
// return means the family is not worth (or not able to) fork: the
// program halted or errored before the boundary, the prefix is too
// short, or the device cannot be snapshotted. Callers negative-cache
// the nil so the probe runs once per family.
func (sp Spec) warmup() *sim.Checkpoint {
	core, err := sim.New(sp.Config.WarmupCanonical(), sp.Program, sp.NewDevice())
	if err != nil {
		return nil
	}
	paused, err := core.RunToAccelFetch(sp.MaxCycles)
	if err != nil || !paused || core.Cycle() < minForkCycles {
		return nil
	}
	ck, err := core.Checkpoint()
	if err != nil {
		return nil
	}
	return ck
}

// resumeFrom forks the spec off a shared warm checkpoint and runs it to
// completion. ok=false means the snapshot was unusable for this spec
// (config or program incompatibility) and the caller should fall back
// to a direct run; with ok=true the error is the run's own and is as
// authoritative as a direct run's (the pause machinery re-raises budget
// and deadlock errors bit-identically).
func (sp Spec) resumeFrom(ck *sim.Checkpoint) (sim.Stats, error, bool) {
	core, err := sim.NewFromCheckpoint(sp.Config, sp.Program, sp.NewDevice(), ck)
	if err != nil {
		return sim.Stats{}, nil, false
	}
	res, err := core.Run(sp.MaxCycles)
	if err != nil {
		return sim.Stats{}, err, true
	}
	return res.Stats, nil, true
}
