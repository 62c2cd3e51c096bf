package runner

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is the persistent sibling of Map: a fixed set of workers draining
// a bounded admission queue. Map fits one sweep whose jobs all exist up
// front; a long-running service (cmd/scenariod) instead receives jobs
// continuously from many clients and needs admission control — a full
// queue must reject new work immediately rather than let goroutines and
// memory grow without bound.
//
// Scheduling is FIFO within priority: higher Priority values run first,
// and jobs of equal priority run in submission order. The pool makes no
// determinism claims beyond that — it executes side-effecting jobs, and
// any result ordering is the caller's concern (the scenario store's
// content addressing is what keeps concurrently-scheduled simulation
// results deterministic).
var (
	// ErrQueueFull rejects a Submit when the admission queue is at
	// capacity. The caller owns backpressure (scenariod maps it to HTTP
	// 503); the pool never blocks a submitter.
	ErrQueueFull = errors.New("runner: admission queue full")
	// ErrPoolClosed rejects work submitted after Close.
	ErrPoolClosed = errors.New("runner: pool closed")
)

// PoolJob is one unit of queued work. The cancelled flag is true when
// the job will never run because the pool shut down first; the job must
// still complete its bookkeeping (release waiters, record the error) —
// quickly and without doing the work.
type PoolJob func(cancelled bool)

// poolItem orders the queue: priority descending, then sequence
// ascending (FIFO within one priority class).
type poolItem struct {
	priority int
	seq      uint64
	job      PoolJob
}

type poolHeap []poolItem

func (h poolHeap) Len() int { return len(h) }
func (h poolHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h poolHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *poolHeap) Push(x any)   { *h = append(*h, x.(poolItem)) }
func (h *poolHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Pool runs jobs on a fixed worker set behind a bounded priority queue.
type Pool struct {
	depth int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  poolHeap
	seq    uint64
	closed bool
	peak   int

	wg sync.WaitGroup

	submitted atomic.Int64
	executed  atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
}

// NewPool starts workers (<= 0 selects GOMAXPROCS) draining a queue of
// at most depth pending jobs (<= 0 selects 4x the worker count, a small
// queue by design: admission control beats buffering for a service
// whose jobs each take milliseconds to seconds).
func NewPool(workers, depth int) *Pool {
	workers = Parallelism(workers)
	if depth <= 0 {
		depth = 4 * workers
	}
	p := &Pool{depth: depth}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		it := heap.Pop(&p.queue).(poolItem)
		p.mu.Unlock()
		// Counted before the job runs: a job's completion can release a
		// reply, and Metrics read after that reply must include it.
		p.executed.Add(1)
		it.job(false)
	}
}

// Submit enqueues a job, failing fast with ErrQueueFull when the
// admission queue is at capacity and ErrPoolClosed after Close. It
// never blocks.
func (p *Pool) Submit(priority int, job PoolJob) error {
	return p.push(priority, job, true)
}

// SubmitAdmitted enqueues a job that was already admitted once —
// parked work being flushed back into the pool (scenariod's warmup
// batching holds same-family jobs aside while the family's shared
// checkpoint warms, then re-submits them). It bypasses the depth bound
// so admitted work cannot be rejected late, and fails only when the
// pool is closed.
func (p *Pool) SubmitAdmitted(priority int, job PoolJob) error {
	return p.push(priority, job, false)
}

func (p *Pool) push(priority int, job PoolJob, bounded bool) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	if bounded && len(p.queue) >= p.depth {
		p.mu.Unlock()
		p.rejected.Add(1)
		return ErrQueueFull
	}
	p.seq++
	heap.Push(&p.queue, poolItem{priority: priority, seq: p.seq, job: job})
	if len(p.queue) > p.peak {
		p.peak = len(p.queue)
	}
	// Counted under the lock, before any worker can pop the job, so
	// Executed never runs ahead of Submitted.
	p.submitted.Add(1)
	p.mu.Unlock()
	p.cond.Signal()
	return nil
}

// Close stops the pool: queued-but-unstarted jobs are completed with
// cancelled=true (synchronously, in queue order), in-flight jobs finish
// normally, and Close returns when every worker has exited. Further
// submissions fail with ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	pending := make([]poolItem, 0, len(p.queue))
	for len(p.queue) > 0 {
		pending = append(pending, heap.Pop(&p.queue).(poolItem))
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	for _, it := range pending {
		it.job(true)
		p.cancelled.Add(1)
	}
	p.wg.Wait()
}

// PoolMetrics is a point-in-time snapshot of pool activity.
type PoolMetrics struct {
	// Submitted counts accepted jobs; Executed those run by a worker;
	// Rejected those refused with ErrQueueFull; Cancelled those
	// completed with cancelled=true at Close.
	Submitted, Executed, Rejected, Cancelled int64
	// QueueLen is the instantaneous queue length, QueuePeak the high
	// watermark, QueueDepth the admission bound.
	QueueLen, QueuePeak, QueueDepth int
}

// Metrics snapshots the counters.
func (p *Pool) Metrics() PoolMetrics {
	p.mu.Lock()
	qlen, peak := len(p.queue), p.peak
	p.mu.Unlock()
	// Executed is read first: every job it counts was counted as
	// submitted before a worker could pop it, so Executed <= Submitted.
	executed := p.executed.Load()
	return PoolMetrics{
		Submitted:  p.submitted.Load(),
		Executed:   executed,
		Rejected:   p.rejected.Load(),
		Cancelled:  p.cancelled.Load(),
		QueueLen:   qlen,
		QueuePeak:  peak,
		QueueDepth: p.depth,
	}
}

// String renders the one-line queue report for /metrics logs.
func (m PoolMetrics) String() string {
	return fmt.Sprintf("pool: %d submitted / %d executed / %d rejected / %d cancelled | queue %d now, %d peak, %d cap",
		m.Submitted, m.Executed, m.Rejected, m.Cancelled, m.QueueLen, m.QueuePeak, m.QueueDepth)
}
