package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Store is a concurrency-safe, content-addressed cache of simulation
// results, keyed by canonical spec digests. It caches at two levels —
// single runs (Spec → sim.Stats) and full measurements (MeasureSpec →
// MeasureRecord) — in memory always, and in a directory of versioned
// JSON blobs when one is configured. Identical specs requested
// concurrently execute once (singleflight); everyone else blocks on
// the first execution and shares its result.
//
// A nil *Store is valid and means "no caching": every method executes
// the work directly, so callers never branch on cache availability.
//
// Warm checkpoints (see ckpt.go) live in memory only: they are shared
// across the forks of one process and never written to the directory.
//
// The disk layer is strictly best-effort and can only produce misses,
// never wrong results or errors: a blob that is unreadable, corrupt,
// from another scheme version, or digest-mismatched is ignored and the
// run re-executes. Run errors are cached in memory for the process
// lifetime (the spec is deterministic, so retrying cannot help) but
// never written to disk.
type Store struct {
	dir        string
	noCkptFork bool

	mu       sync.Mutex
	runs     map[Digest]*runEntry
	measures map[Digest]*measureEntry
	ckpts    map[Digest]*ckptEntry
	// statics caches static-model predictions by the same MeasureSpec
	// digest in its own namespace (see static.go); lazily allocated so
	// stores that never predict pay nothing.
	statics map[Digest]*staticEntry

	// Counters are atomics so Metrics can snapshot without the map
	// lock.
	runHits, runMisses, runDiskHits, runUncacheable, runCoalesced      atomic.Int64
	measHits, measMisses, measDiskHits, measUncacheable, measCoalesced atomic.Int64
	ckptForks, ckptWarmups                                             atomic.Int64
	staticHits, staticMisses, staticUncacheable, staticCoalesced       atomic.Int64
	bytesRead, bytesWritten                                            atomic.Int64
}

type runEntry struct {
	once  sync.Once
	done  atomic.Bool
	stats sim.Stats
	err   error
}

type measureEntry struct {
	once sync.Once
	done atomic.Bool
	rec  MeasureRecord
	err  error
}

// ckptEntry singleflights one warmup family's shared checkpoint. ck
// stays nil when the family is unforkable (negative-cached: the warmup
// probe runs once, later members skip straight to direct runs).
type ckptEntry struct {
	once sync.Once
	ck   *sim.Checkpoint
}

// NewStore returns a store. dir == "" keeps the cache in memory only;
// otherwise dir is created if needed and used for persistent blobs.
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("scenario: cache dir: %w", err)
		}
	}
	return &Store{
		dir:      dir,
		runs:     make(map[Digest]*runEntry),
		measures: make(map[Digest]*measureEntry),
		ckpts:    make(map[Digest]*ckptEntry),
	}, nil
}

// DisableCheckpointForking makes every cache miss execute its full
// warmup prefix instead of forking off a shared warm checkpoint
// (cmd/figures -no-ckpt-fork; the byte-identity check in scripts/
// check.sh diffs the two paths). Call before issuing work.
func (s *Store) DisableCheckpointForking() {
	if s != nil {
		s.noCkptFork = true
	}
}

// RunStats executes the spec — or returns the cached sim.Stats of a
// digest-equal earlier run. The returned Stats is a private copy;
// callers may mutate it freely.
func (s *Store) RunStats(spec Spec) (sim.Stats, error) {
	if s == nil {
		return spec.run()
	}
	if !spec.Cacheable() {
		s.runUncacheable.Add(1)
		return spec.run()
	}
	d := spec.Digest()
	s.mu.Lock()
	e, ok := s.runs[d]
	if !ok {
		e = &runEntry{}
		s.runs[d] = e
	}
	s.mu.Unlock()

	// A pre-existing entry that has not completed means this caller is
	// about to block on someone else's in-flight execution — that is a
	// coalesced request, not a plain memory hit. Sampled before the
	// once.Do so the classification reflects what the caller actually
	// waited on.
	joined := ok && !e.done.Load()
	ran := false
	e.once.Do(func() {
		ran = true
		if st, ok := s.loadRunBlob(d); ok {
			e.stats = st
			s.runDiskHits.Add(1)
			return
		}
		s.runMisses.Add(1)
		e.stats, e.err = s.computeRun(spec)
		if e.err == nil {
			s.saveRunBlob(d, e.stats)
		}
	})
	e.done.Store(true)
	if !ran {
		if joined {
			s.runCoalesced.Add(1)
		} else {
			s.runHits.Add(1)
		}
	}
	return cloneStats(e.stats), e.err
}

// Measure returns the cached MeasureRecord for the spec, or computes
// it once via compute. The compute closure typically issues its
// constituent runs through s.RunStats, so run-level deduplication
// applies even when the measure level misses.
func (s *Store) Measure(spec MeasureSpec, compute func() (MeasureRecord, error)) (MeasureRecord, error) {
	if s == nil {
		return compute()
	}
	if !spec.Cacheable() {
		s.measUncacheable.Add(1)
		return compute()
	}
	d := spec.Digest()
	s.mu.Lock()
	e, ok := s.measures[d]
	if !ok {
		e = &measureEntry{}
		s.measures[d] = e
	}
	s.mu.Unlock()

	joined := ok && !e.done.Load()
	ran := false
	e.once.Do(func() {
		ran = true
		if rec, ok := s.loadMeasureBlob(d); ok {
			e.rec = rec
			s.measDiskHits.Add(1)
			return
		}
		s.measMisses.Add(1)
		e.rec, e.err = compute()
		if e.err == nil {
			s.saveMeasureBlob(d, e.rec)
		}
	})
	e.done.Store(true)
	if !ran {
		if joined {
			s.measCoalesced.Add(1)
		} else {
			s.measHits.Add(1)
		}
	}
	return e.rec.Clone(), e.err
}

// computeRun executes a cache-missed spec: through the warm-checkpoint
// fast path when its warmup family has a usable shared snapshot, with a
// direct full run otherwise. Both paths produce bit-identical Stats
// (the checkpoint differential suite in internal/sim enforces it), so
// the cached result is path-independent.
func (s *Store) computeRun(spec Spec) (sim.Stats, error) {
	if ck := s.warmCheckpoint(spec); ck != nil {
		if st, err, ok := spec.resumeFrom(ck); ok {
			s.ckptForks.Add(1)
			return st, err
		}
	}
	return spec.run()
}

// warmCheckpoint returns the spec's shared warm checkpoint, running the
// warmup prefix once per family (singleflight, in memory) on its first
// use. nil means "run directly": forking disabled, spec unforkable, or
// the family probed unforkable earlier.
func (s *Store) warmCheckpoint(spec Spec) *sim.Checkpoint {
	if s.noCkptFork || !spec.forkable() {
		return nil
	}
	d := spec.warmupDigest()
	s.mu.Lock()
	e, ok := s.ckpts[d]
	if !ok {
		e = &ckptEntry{}
		s.ckpts[d] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		s.ckptWarmups.Add(1)
		e.ck = spec.warmup()
	})
	return e.ck
}

// cloneStats deep-copies a Stats so cached canonical copies are never
// aliased by callers.
func cloneStats(st sim.Stats) sim.Stats {
	out := st
	out.AccelEvents = append([]sim.AccelEvent(nil), st.AccelEvents...)
	out.PipeTrace = append([]sim.PipeEvent(nil), st.PipeTrace...)
	return out
}

// Metrics is a point-in-time snapshot of store activity. It is the one
// source of truth for cache observability: cmd/figures' stderr line and
// scenariod's /metrics endpoint both render this snapshot.
type Metrics struct {
	// Run-level counters. Hits are served from completed memory
	// entries, Coalesced joined an execution that was still in flight
	// (the singleflight dedup — under a multi-client daemon this is the
	// cross-client sharing), DiskHits loaded the blob directory, Misses
	// executed the simulator, Uncacheable runs bypassed the cache
	// (device without a canonical key).
	RunHits, RunMisses, RunDiskHits, RunUncacheable, RunCoalesced int64
	// Measure-level counters, same meaning.
	MeasureHits, MeasureMisses, MeasureDiskHits, MeasureUncacheable, MeasureCoalesced int64
	// Checkpoint counters: Forks resumed from a shared warm snapshot,
	// Warmups executed a warmup prefix to produce (or probe for) one.
	CkptForks, CkptWarmups int64
	// Static-prediction counters (memory-only level, see
	// Store.StaticPrediction).
	StaticHits, StaticMisses, StaticUncacheable, StaticCoalesced int64
	// BytesRead/BytesWritten count disk-blob traffic.
	BytesRead, BytesWritten int64
}

// Metrics snapshots the counters. Safe on a nil store (all zero).
func (s *Store) Metrics() Metrics {
	if s == nil {
		return Metrics{}
	}
	return Metrics{
		RunHits:            s.runHits.Load(),
		RunMisses:          s.runMisses.Load(),
		RunDiskHits:        s.runDiskHits.Load(),
		RunUncacheable:     s.runUncacheable.Load(),
		RunCoalesced:       s.runCoalesced.Load(),
		MeasureHits:        s.measHits.Load(),
		MeasureMisses:      s.measMisses.Load(),
		MeasureDiskHits:    s.measDiskHits.Load(),
		MeasureUncacheable: s.measUncacheable.Load(),
		MeasureCoalesced:   s.measCoalesced.Load(),
		CkptForks:          s.ckptForks.Load(),
		CkptWarmups:        s.ckptWarmups.Load(),
		StaticHits:         s.staticHits.Load(),
		StaticMisses:       s.staticMisses.Load(),
		StaticUncacheable:  s.staticUncacheable.Load(),
		StaticCoalesced:    s.staticCoalesced.Load(),
		BytesRead:          s.bytesRead.Load(),
		BytesWritten:       s.bytesWritten.Load(),
	}
}

// DedupRatio is the fraction of cacheable requests served without
// executing the simulator: (hits + coalesced + disk hits) / all
// cacheable requests, across both levels. Zero when nothing was
// requested.
func (m Metrics) DedupRatio() float64 {
	served := m.RunHits + m.RunCoalesced + m.RunDiskHits +
		m.MeasureHits + m.MeasureCoalesced + m.MeasureDiskHits
	total := served + m.RunMisses + m.MeasureMisses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Sub returns the counter-wise difference m - prev, for reporting the
// activity of one request phase against a running store (scenarioload
// samples /metrics before and after each phase).
func (m Metrics) Sub(prev Metrics) Metrics {
	return Metrics{
		RunHits:            m.RunHits - prev.RunHits,
		RunMisses:          m.RunMisses - prev.RunMisses,
		RunDiskHits:        m.RunDiskHits - prev.RunDiskHits,
		RunUncacheable:     m.RunUncacheable - prev.RunUncacheable,
		RunCoalesced:       m.RunCoalesced - prev.RunCoalesced,
		MeasureHits:        m.MeasureHits - prev.MeasureHits,
		MeasureMisses:      m.MeasureMisses - prev.MeasureMisses,
		MeasureDiskHits:    m.MeasureDiskHits - prev.MeasureDiskHits,
		MeasureUncacheable: m.MeasureUncacheable - prev.MeasureUncacheable,
		MeasureCoalesced:   m.MeasureCoalesced - prev.MeasureCoalesced,
		CkptForks:          m.CkptForks - prev.CkptForks,
		CkptWarmups:        m.CkptWarmups - prev.CkptWarmups,
		StaticHits:         m.StaticHits - prev.StaticHits,
		StaticMisses:       m.StaticMisses - prev.StaticMisses,
		StaticUncacheable:  m.StaticUncacheable - prev.StaticUncacheable,
		StaticCoalesced:    m.StaticCoalesced - prev.StaticCoalesced,
		BytesRead:          m.BytesRead - prev.BytesRead,
		BytesWritten:       m.BytesWritten - prev.BytesWritten,
	}
}

// String renders the one-line report cmd/figures prints to stderr.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"scenario store: runs %d hit / %d coalesced / %d disk / %d miss / %d uncacheable | measures %d hit / %d coalesced / %d disk / %d miss / %d uncacheable | ckpt %d fork / %d warmup | static %d hit / %d coalesced / %d miss / %d uncacheable | %d B read, %d B written | dedup %.1f%%",
		m.RunHits, m.RunCoalesced, m.RunDiskHits, m.RunMisses, m.RunUncacheable,
		m.MeasureHits, m.MeasureCoalesced, m.MeasureDiskHits, m.MeasureMisses, m.MeasureUncacheable,
		m.CkptForks, m.CkptWarmups,
		m.StaticHits, m.StaticCoalesced, m.StaticMisses, m.StaticUncacheable,
		m.BytesRead, m.BytesWritten, 100*m.DedupRatio())
}

// diskBlob is the on-disk JSON envelope. Scheme and digest are
// verified on load; either mismatching turns the blob into a miss.
type diskBlob struct {
	Scheme  int            `json:"scheme"`
	Kind    string         `json:"kind"`
	Digest  string         `json:"digest"`
	Run     *sim.Stats     `json:"run,omitempty"`
	Measure *MeasureRecord `json:"measure,omitempty"`
}

// blobPath is the sharded location of one envelope: blobs spread over
// 256 subdirectories named by the first two hex digits of the digest.
// A warm fleet-serving store accumulates one file per distinct (kind,
// digest); a flat directory degrades on lookup and temp-file creation
// long before the cache itself is large (classic dirent scaling), so
// the digest prefix — uniform by construction, SHA-256 — spreads the
// load.
func (s *Store) blobPath(kind string, d Digest) string {
	h := d.String()
	return filepath.Join(s.dir, h[:2], kind+"-"+h+".json")
}

// loadBlob reads and verifies one envelope. Any failure is a miss.
func (s *Store) loadBlob(kind string, d Digest) (diskBlob, bool) {
	if s.dir == "" {
		return diskBlob{}, false
	}
	data, err := os.ReadFile(s.blobPath(kind, d))
	if err != nil {
		return diskBlob{}, false
	}
	var b diskBlob
	if json.Unmarshal(data, &b) != nil {
		return diskBlob{}, false
	}
	if b.Scheme != SchemeVersion || b.Kind != kind || b.Digest != d.String() {
		return diskBlob{}, false
	}
	s.bytesRead.Add(int64(len(data)))
	return b, true
}

// saveBlob writes one envelope via temp-file + rename so concurrent
// processes never observe partial blobs. The temp file lives in the
// destination shard directory so the rename stays within one
// filesystem directory (atomic everywhere). Failures are silently
// ignored: the disk layer is an optimization, not a requirement.
func (s *Store) saveBlob(kind string, d Digest, b diskBlob) {
	if s.dir == "" {
		return
	}
	b.Scheme = SchemeVersion
	b.Kind = kind
	b.Digest = d.String()
	data, err := json.Marshal(b)
	if err != nil {
		return
	}
	shard := filepath.Dir(s.blobPath(kind, d))
	if os.MkdirAll(shard, 0o755) != nil {
		return
	}
	tmp, err := os.CreateTemp(shard, kind+"-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), s.blobPath(kind, d)) != nil {
		os.Remove(tmp.Name())
		return
	}
	s.bytesWritten.Add(int64(len(data)))
}

func (s *Store) loadRunBlob(d Digest) (sim.Stats, bool) {
	b, ok := s.loadBlob("run", d)
	if !ok || b.Run == nil {
		return sim.Stats{}, false
	}
	return *b.Run, true
}

func (s *Store) saveRunBlob(d Digest, st sim.Stats) {
	s.saveBlob("run", d, diskBlob{Run: &st})
}

func (s *Store) loadMeasureBlob(d Digest) (MeasureRecord, bool) {
	b, ok := s.loadBlob("measure", d)
	if !ok || b.Measure == nil {
		return MeasureRecord{}, false
	}
	return *b.Measure, true
}

func (s *Store) saveMeasureBlob(d Digest, rec MeasureRecord) {
	s.saveBlob("measure", d, diskBlob{Measure: &rec})
}
