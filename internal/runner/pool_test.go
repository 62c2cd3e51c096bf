package runner

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolExecutesAll(t *testing.T) {
	p := NewPool(4, 0)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		// SubmitAdmitted so the test never races the queue bound.
		if err := p.SubmitAdmitted(0, func(cancelled bool) {
			defer wg.Done()
			if !cancelled {
				n.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	p.Close()
	if got := n.Load(); got != 100 {
		t.Fatalf("executed %d of 100 jobs", got)
	}
	m := p.Metrics()
	if m.Submitted != 100 || m.Executed != 100 || m.Cancelled != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestPoolMetricsExecutedNotAheadOfSubmitted: a Metrics snapshot taken
// anywhere, including by a running job, never shows more jobs executed
// than submitted, and a running job always sees itself executed.
func TestPoolMetricsExecutedNotAheadOfSubmitted(t *testing.T) {
	p := NewPool(4, 0)
	var bad atomic.Int64
	check := func(m PoolMetrics, self int64) {
		if m.Executed > m.Submitted || m.Executed < self {
			bad.Add(1)
		}
	}
	var jobs, submitters sync.WaitGroup
	for g := 0; g < 4; g++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < 500; i++ {
				jobs.Add(1)
				if err := p.SubmitAdmitted(0, func(cancelled bool) {
					defer jobs.Done()
					check(p.Metrics(), 1)
				}); err != nil {
					jobs.Done()
					bad.Add(1)
				}
				check(p.Metrics(), 0)
			}
		}()
	}
	submitters.Wait()
	jobs.Wait()
	p.Close()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d snapshots with Executed ahead of Submitted (or a job missing itself)", n)
	}
}

// TestPoolQueueBound: with workers wedged, submissions past the depth
// bound fail fast with ErrQueueFull and nothing blocks.
func TestPoolQueueBound(t *testing.T) {
	p := NewPool(1, 2)
	release := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(0, func(cancelled bool) {
		if !cancelled {
			close(started)
			<-release
		}
	}); err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied; queue now empty

	for i := 0; i < 2; i++ {
		if err := p.Submit(0, func(bool) {}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := p.Submit(0, func(bool) {}); err != ErrQueueFull {
		t.Fatalf("over-depth Submit: got %v, want ErrQueueFull", err)
	}
	// Parked-work resubmission bypasses the bound.
	if err := p.SubmitAdmitted(0, func(bool) {}); err != nil {
		t.Fatalf("SubmitAdmitted: %v", err)
	}
	close(release)
	p.Close()
	if m := p.Metrics(); m.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", m.Rejected)
	}
}

// TestPoolPriorityFIFO: a single wedged worker, then a batch of queued
// jobs — they must drain in priority order, FIFO within a priority.
func TestPoolPriorityFIFO(t *testing.T) {
	p := NewPool(1, 8)
	release := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(0, func(cancelled bool) {
		if !cancelled {
			close(started)
			<-release
		}
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	enqueue := func(id, prio int) {
		wg.Add(1)
		if err := p.Submit(prio, func(cancelled bool) {
			defer wg.Done()
			if cancelled {
				return
			}
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Submission order: low, high, low, high, low.
	enqueue(1, 0)
	enqueue(2, 5)
	enqueue(3, 0)
	enqueue(4, 5)
	enqueue(5, 0)
	close(release)
	wg.Wait()
	p.Close()

	want := []int{2, 4, 1, 3, 5}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestPoolCloseCancelsQueued: queued-but-unstarted jobs complete with
// cancelled=true; Close waits for everything.
func TestPoolCloseCancelsQueued(t *testing.T) {
	p := NewPool(1, 8)
	release := make(chan struct{})
	started := make(chan struct{})
	p.Submit(0, func(cancelled bool) {
		if !cancelled {
			close(started)
			<-release
		}
	})
	<-started

	var ran, cancelled atomic.Int64
	for i := 0; i < 5; i++ {
		if err := p.Submit(0, func(c bool) {
			if c {
				cancelled.Add(1)
			} else {
				ran.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	close(release)
	<-done

	// The wedged job plus whatever the worker dequeued before Close
	// snapshotted the queue ran normally; the rest were cancelled.
	if total := ran.Load() + cancelled.Load(); total != 5 {
		t.Fatalf("ran %d + cancelled %d != 5", ran.Load(), cancelled.Load())
	}
	if err := p.Submit(0, func(bool) {}); err != ErrPoolClosed {
		t.Fatalf("post-Close Submit: got %v, want ErrPoolClosed", err)
	}
	if err := p.SubmitAdmitted(0, func(bool) {}); err != ErrPoolClosed {
		t.Fatalf("post-Close SubmitAdmitted: got %v, want ErrPoolClosed", err)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2, 0)
	p.Close()
	p.Close()
}
