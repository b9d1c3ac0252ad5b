package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sherlock/internal/core"
)

// testJob builds a queued job with a distinct content key.
func testJob(i int) *Job {
	return newJob(fmt.Sprintf("job-%06d", i), fmt.Sprintf("key-%d", i),
		JobSpec{App: "App-1"}, core.DefaultConfig(), time.Now())
}

// newTestQueue wires a queue with an injected executor and no server.
func newTestQueue(t *testing.T, size, workers int, timeout time.Duration, exec executor) *queue {
	t.Helper()
	q := newQueue(context.Background(), size, workers, timeout, exec, NewRegistry(), nil)
	t.Cleanup(func() { _ = q.Drain(context.Background()) })
	return q
}

func TestQueueRunsJobs(t *testing.T) {
	var ran atomic.Int32
	q := newTestQueue(t, 8, 2, 0, func(ctx context.Context, j *Job) error {
		ran.Add(1)
		return nil
	})
	jobs := make([]*Job, 5)
	for i := range jobs {
		jobs[i] = testJob(i)
		if err := q.Submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		<-j.Done()
		if st := j.Status(); st != StatusDone {
			t.Fatalf("%s: status %s, want done", j.ID, st)
		}
	}
	if ran.Load() != 5 {
		t.Fatalf("executor ran %d times, want 5", ran.Load())
	}
}

func TestQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	q := newTestQueue(t, 1, 1, 0, func(ctx context.Context, j *Job) error {
		started <- struct{}{}
		<-gate
		return nil
	})

	// First job occupies the worker; second fills the single queue slot.
	a, b := testJob(0), testJob(1)
	if err := q.Submit(a); err != nil {
		t.Fatal(err)
	}
	<-started // a is on the worker, slot free again
	if err := q.Submit(b); err != nil {
		t.Fatal(err)
	}
	// Queue is now full: fail fast, don't block, don't grow.
	if err := q.Submit(testJob(2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	close(gate)
	<-a.Done()
	<-b.Done()
	// Capacity frees up after completion.
	c := testJob(3)
	if err := q.Submit(c); err != nil {
		t.Fatalf("submit after drain of backlog: %v", err)
	}
	<-c.Done()
}

func TestQueueCancelRunningFreesWorker(t *testing.T) {
	started := make(chan *Job, 1)
	q := newTestQueue(t, 4, 1, 0, func(ctx context.Context, j *Job) error {
		select {
		case started <- j:
		default:
		}
		<-ctx.Done() // a well-behaved campaign: returns when canceled
		return ctx.Err()
	})
	victim := testJob(0)
	if err := q.Submit(victim); err != nil {
		t.Fatal(err)
	}
	<-started
	victim.Cancel()
	<-victim.Done()
	if st := victim.Status(); st != StatusCanceled {
		t.Fatalf("status %s, want canceled", st)
	}

	// The worker must be free for the next job. The executor blocks on ctx,
	// so cancel this one too once it starts — but first verify it STARTS,
	// which it can only do on a freed worker.
	next := newJob("job-next", "key-next", JobSpec{App: "App-1"}, core.DefaultConfig(), time.Now())
	if err := q.Submit(next); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never freed after cancellation")
	}
	next.Cancel()
	<-next.Done()
}

func TestQueueCancelQueuedNeverRuns(t *testing.T) {
	gate := make(chan struct{})
	var ran atomic.Int32
	q := newTestQueue(t, 2, 1, 0, func(ctx context.Context, j *Job) error {
		ran.Add(1)
		<-gate
		return nil
	})
	blocker := testJob(0)
	queued := testJob(1)
	if err := q.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(queued); err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	<-queued.Done()
	if st := queued.Status(); st != StatusCanceled {
		t.Fatalf("status %s, want canceled", st)
	}
	close(gate)
	<-blocker.Done()
	_ = q.Drain(context.Background())
	if ran.Load() != 1 {
		t.Fatalf("executor ran %d times, want 1 (canceled job must not run)", ran.Load())
	}
}

func TestQueueJobTimeout(t *testing.T) {
	q := newTestQueue(t, 2, 1, 20*time.Millisecond, func(ctx context.Context, j *Job) error {
		<-ctx.Done()
		return ctx.Err()
	})
	j := testJob(0)
	if err := q.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st != StatusFailed {
		t.Fatalf("status %s, want failed (timeout)", st)
	}
}

// TestQueueSubmitStorm hammers a small queue from many goroutines under
// -race: every submission either lands or fails fast with ErrQueueFull,
// admitted jobs all finish, and accounting stays consistent.
func TestQueueSubmitStorm(t *testing.T) {
	q := newTestQueue(t, 4, 4, 0, func(ctx context.Context, j *Job) error {
		return nil
	})
	const goroutines = 16
	const perG = 200
	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var all []*Job
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j := testJob(g*perG + i)
				switch err := q.Submit(j); {
				case err == nil:
					admitted.Add(1)
					mu.Lock()
					all = append(all, j)
					mu.Unlock()
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				default:
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, j := range all {
		<-j.Done()
		if st := j.Status(); st != StatusDone {
			t.Fatalf("%s: status %s, want done", j.ID, st)
		}
	}
	if got := admitted.Load() + rejected.Load(); got != goroutines*perG {
		t.Fatalf("admitted+rejected = %d, want %d", got, goroutines*perG)
	}
	if admitted.Load() == 0 {
		t.Fatal("storm admitted nothing; queue wedged")
	}
}

func TestQueueDrainWaitsForAdmitted(t *testing.T) {
	gate := make(chan struct{})
	q := newQueue(context.Background(), 4, 1, 0, func(ctx context.Context, j *Job) error {
		<-gate
		return nil
	}, NewRegistry(), nil)
	a, b := testJob(0), testJob(1)
	if err := q.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(b); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()

	// Drain refuses new work immediately...
	deadline := time.After(5 * time.Second)
	for {
		if err := q.Submit(testJob(2)); errors.Is(err, ErrDraining) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("Submit never started returning ErrDraining")
		case <-time.After(time.Millisecond):
		}
	}
	// ...but waits for the admitted jobs.
	select {
	case <-drained:
		t.Fatal("Drain returned while jobs were still gated")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if a.Status() != StatusDone || b.Status() != StatusDone {
		t.Fatalf("admitted jobs not finished: %s %s", a.Status(), b.Status())
	}
}

func TestQueueDrainTimeout(t *testing.T) {
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	q := newQueue(base, 2, 1, 0, func(ctx context.Context, j *Job) error {
		<-ctx.Done()
		return ctx.Err()
	}, NewRegistry(), nil)
	j := testJob(0)
	if err := q.Submit(j); err != nil {
		t.Fatal(err)
	}
	ctx, cancelDrain := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelDrain()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	// Force-cancel stragglers, as Server.Shutdown does.
	cancel()
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}
