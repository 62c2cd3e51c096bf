package scenario

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/sim"
)

// warmupHeavySpec builds a spec whose program spins a long scalar
// warmup loop before its accelerator region — the shape warm-checkpoint
// forking exists for. iters=2000 gives a prefix comfortably past
// minForkCycles.
func warmupHeavySpec(t testing.TB, mode accel.Mode, iters int64) Spec {
	t.Helper()
	b := isa.NewBuilder()
	b.MovI(isa.R(1), 0)
	b.MovI(isa.R(2), iters)
	b.Label("warm")
	b.AddI(isa.R(3), isa.R(3), 7)
	b.AddI(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "warm")
	b.MovI(isa.R(4), 0)
	b.MovI(isa.R(5), 20)
	b.Label("accel")
	b.Accel(isa.R(6), 0, isa.R(3))
	b.AddI(isa.R(4), isa.R(4), 1)
	b.Blt(isa.R(4), isa.R(5), "accel")
	b.Halt()
	cfg := sim.HighPerfConfig()
	cfg.Mode = mode
	return Spec{
		Config:    cfg,
		Program:   b.MustBuild(),
		NewDevice: func() isa.AccelDevice { return accel.NewFixedLatency(40) },
		DeviceKey: "fixed:lat=40",
		MaxCycles: 1 << 30,
	}
}

// TestCheckpointForkMatchesDirectRun: a sweep over all four modes must
// fork every variant from ONE shared warmup, and each forked result
// must be deeply equal to a direct (never-paused) run of the same spec.
func TestCheckpointForkMatchesDirectRun(t *testing.T) {
	s := newTestStore(t, "")
	for _, m := range accel.AllModes {
		spec := warmupHeavySpec(t, m, 2000)
		got, err := s.RunStats(spec)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		want, err := spec.run()
		if err != nil {
			t.Fatalf("%s direct: %v", m, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: forked stats differ from direct run:\nforked: %v\ndirect: %v", m, got, want)
		}
	}
	mtr := s.Metrics()
	if mtr.CkptWarmups != 1 {
		t.Errorf("warmup prefix executed %d times for one family, want 1", mtr.CkptWarmups)
	}
	if mtr.CkptForks != int64(len(accel.AllModes)) {
		t.Errorf("%d forks, want %d (one per mode)", mtr.CkptForks, len(accel.AllModes))
	}
}

// TestCheckpointForkDisabled: -no-ckpt-fork must bypass the warm path
// entirely and still produce identical results.
func TestCheckpointForkDisabled(t *testing.T) {
	forked := newTestStore(t, "")
	direct := newTestStore(t, "")
	direct.DisableCheckpointForking()
	spec := warmupHeavySpec(t, accel.LT, 2000)
	a, err := forked.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := direct.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("checkpoint forking changed the cached result")
	}
	if m := direct.Metrics(); m.CkptWarmups != 0 || m.CkptForks != 0 {
		t.Errorf("disabled store still used the checkpoint path: %+v", m)
	}
	if m := forked.Metrics(); m.CkptForks != 1 {
		t.Errorf("enabled store did not fork: %+v", m)
	}
}

// TestCheckpointShortWarmupNotForked: prefixes below minForkCycles
// negative-cache and fall back to direct runs — once per family, not
// once per member.
func TestCheckpointShortWarmupNotForked(t *testing.T) {
	s := newTestStore(t, "")
	for _, m := range accel.AllModes {
		spec := warmupHeavySpec(t, m, 4) // couple dozen warmup cycles
		if _, err := s.RunStats(spec); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
	mtr := s.Metrics()
	if mtr.CkptForks != 0 {
		t.Errorf("short warmup forked %d times, want 0", mtr.CkptForks)
	}
	if mtr.CkptWarmups != 1 {
		t.Errorf("unforkable family probed %d times, want 1 (negative cache)", mtr.CkptWarmups)
	}
}

// TestCheckpointBaselineNotForked: programs without accelerator
// instructions never touch the checkpoint machinery.
func TestCheckpointBaselineNotForked(t *testing.T) {
	s := newTestStore(t, "")
	if _, err := s.RunStats(baselineSpec(t)); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.CkptWarmups != 0 || m.CkptForks != 0 {
		t.Errorf("baseline run touched the checkpoint path: %+v", m)
	}
}

// TestCheckpointMemoryOnly: warm checkpoints never reach the cache
// directory. A second store over the same directory, asked for a new
// mode in the same warmup family, re-runs the warmup once, forks from
// it, and still matches a direct run.
func TestCheckpointMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	first := newTestStore(t, dir)
	if _, err := first.RunStats(warmupHeavySpec(t, accel.LT, 2000)); err != nil {
		t.Fatal(err)
	}
	if m := first.Metrics(); m.CkptWarmups != 1 || m.CkptForks != 1 {
		t.Fatalf("first store: %d warmups / %d forks, want 1 / 1", m.CkptWarmups, m.CkptForks)
	}
	ckptFiles, err := filepath.Glob(filepath.Join(dir, "*", "ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckptFiles) != 0 {
		t.Errorf("checkpoint written to the cache dir: %v", ckptFiles)
	}

	second := newTestStore(t, dir)
	// A different mode in the same warmup family: its run blob is not
	// on disk, and neither is the family's checkpoint.
	other := warmupHeavySpec(t, accel.NLNT, 2000)
	got, err := second.RunStats(other)
	if err != nil {
		t.Fatal(err)
	}
	if m := second.Metrics(); m.CkptWarmups != 1 || m.CkptForks != 1 {
		t.Errorf("second store: %d warmups / %d forks, want 1 / 1", m.CkptWarmups, m.CkptForks)
	}
	direct, err := other.run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, direct) {
		t.Error("second store's fork differs from direct run")
	}
}

// TestCheckpointForkConcurrent: concurrent first requests across a
// sweep singleflight the warmup and fork race-free (exercised under
// -race in CI's short differential job).
func TestCheckpointForkConcurrent(t *testing.T) {
	s := newTestStore(t, "")
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(accel.AllModes))
	for i := 0; i < 4; i++ {
		for _, m := range accel.AllModes {
			wg.Add(1)
			go func(m accel.Mode) {
				defer wg.Done()
				spec := warmupHeavySpec(t, m, 2000)
				got, err := s.RunStats(spec)
				if err != nil {
					errs <- err
					return
				}
				want, err := spec.run()
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("%s: concurrent forked stats diverge", m)
				}
			}(m)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if mtr := s.Metrics(); mtr.CkptWarmups != 1 {
		t.Errorf("concurrent sweep ran %d warmups, want 1", mtr.CkptWarmups)
	}
}
