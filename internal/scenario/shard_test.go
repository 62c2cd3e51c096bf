package scenario

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestShardedBlobLayout: new blobs land under the two-hex-digit shard
// directory, not flat in the cache root.
func TestShardedBlobLayout(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, dir)
	spec := baselineSpec(t)
	if _, err := s.RunStats(spec); err != nil {
		t.Fatal(err)
	}
	h := spec.Digest().String()
	sharded := filepath.Join(dir, h[:2], "run-"+h+".json")
	if _, err := os.Stat(sharded); err != nil {
		t.Fatalf("sharded blob missing: %v", err)
	}
	flat := filepath.Join(dir, "run-"+h+".json")
	if _, err := os.Stat(flat); !os.IsNotExist(err) {
		t.Fatalf("flat-layout blob written alongside sharded one: %v", err)
	}
}

// TestShardedAndLegacyPreferSharded: a stray file at the old flat
// location is never read; the sharded blob serves the disk hit.
func TestShardedAndLegacyPreferSharded(t *testing.T) {
	dir := t.TempDir()
	writer := newTestStore(t, dir)
	spec := baselineSpec(t)
	if _, err := writer.RunStats(spec); err != nil {
		t.Fatal(err)
	}
	h := spec.Digest().String()
	sharded := filepath.Join(dir, h[:2], "run-"+h+".json")
	flat := filepath.Join(dir, "run-"+h+".json")
	// Plant a corrupt flat blob; reading it would be a miss.
	if err := os.WriteFile(flat, []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sharded); err != nil {
		t.Fatal(err)
	}
	reader := newTestStore(t, dir)
	if _, err := reader.RunStats(spec); err != nil {
		t.Fatal(err)
	}
	if m := reader.Metrics(); m.RunDiskHits != 1 {
		t.Errorf("metrics %+v: want the sharded blob to serve the disk hit", m)
	}
}

// TestCoalescedCounterClassification pins the hit/coalesced split
// deterministically: a request that joins an in-flight execution is
// coalesced; a request arriving after completion is a memory hit.
func TestCoalescedCounterClassification(t *testing.T) {
	s := newTestStore(t, "")
	spec := accelSpec(t)

	// Two concurrent requests for one spec: whichever the scheduler
	// favors executes (the miss); the other is served without executing
	// — coalesced if it joined mid-flight, a memory hit if it arrived
	// after. The split is scheduling-dependent, the sum is not.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.RunStats(spec); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	m := s.Metrics()
	if m.RunMisses != 1 {
		t.Fatalf("misses %d, want 1", m.RunMisses)
	}
	if m.RunHits+m.RunCoalesced != 1 {
		t.Fatalf("hits %d + coalesced %d, want exactly 1 duplicate served", m.RunHits, m.RunCoalesced)
	}

	// A third request after everything settled is unambiguous: memory
	// hit, never coalesced.
	before := s.Metrics()
	if _, err := s.RunStats(spec); err != nil {
		t.Fatal(err)
	}
	d := s.Metrics().Sub(before)
	if d.RunHits != 1 || d.RunCoalesced != 0 || d.RunMisses != 0 {
		t.Errorf("settled duplicate: delta %+v, want one memory hit", d)
	}
}

// TestMetricsSub: phase deltas subtract counter-wise.
func TestMetricsSub(t *testing.T) {
	a := Metrics{RunHits: 5, RunMisses: 2, CkptForks: 3, BytesWritten: 100}
	b := Metrics{RunHits: 9, RunMisses: 2, CkptForks: 4, BytesWritten: 250}
	d := b.Sub(a)
	if d.RunHits != 4 || d.RunMisses != 0 || d.CkptForks != 1 || d.BytesWritten != 150 {
		t.Errorf("Sub: %+v", d)
	}
}
