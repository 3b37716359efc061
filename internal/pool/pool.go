// Package pool is the deterministic worker pool shared by the experiment
// harness (internal/exper) and the public sweep facade (bftbcast.Sweep).
// Work items are indexed; results land in caller-owned slots and errors
// are reported by lowest index, so the outcome of a pooled run is
// independent of goroutine scheduling.
package pool

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0), ..., fn(n-1) on a pool of the given number of
// worker goroutines (<= 1 runs inline). Each index writes its outputs
// into caller-owned slots, so results are deterministic regardless of
// scheduling; the error reported is the one from the lowest failing
// index, again independent of scheduling. All indices are attempted even
// when one fails (runs are cheap and side-effect free).
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachWorker(workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with the worker identity passed to fn: fn is
// called as fn(w, i) where w in [0, workers) names the goroutine running
// index i, and every call with the same w runs on the same goroutine.
// Callers use w to pin per-worker state (a reusable engine, a scratch
// arena) that a work item may use without synchronization.
func ForEachWorker(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Ordered runs fn(0), ..., fn(n-1) on a pool of workers and calls
// emit(i) in strict index order, each as soon as every index <= i has
// completed. fn stores its result in a caller-owned slot; emit then
// streams the slots without reordering, so consumers observe the same
// deterministic sequence a sequential run would produce. emit runs on a
// dedicated goroutine and never blocks the workers: a slow consumer
// delays emission, not computation. Ordered returns once every index has
// been emitted.
func Ordered(workers, n int, fn func(i int) error, emit func(i int)) error {
	return OrderedWorker(workers, n, func(_, i int) error { return fn(i) }, emit)
}

// OrderedWorker is Ordered with the worker identity passed to fn (see
// ForEachWorker).
func OrderedWorker(workers, n int, fn func(worker, i int) error, emit func(i int)) error {
	if n <= 0 {
		return nil
	}
	if emit == nil {
		return ForEachWorker(workers, n, fn)
	}

	var (
		mu   sync.Mutex
		cond = sync.NewCond(&mu)
		done = make([]bool, n)
	)
	emitted := make(chan struct{})
	go func() {
		defer close(emitted)
		next := 0
		mu.Lock()
		defer mu.Unlock()
		for next < n {
			for !done[next] {
				cond.Wait()
			}
			// Emit outside the lock so workers can report completions
			// while the consumer drains.
			mu.Unlock()
			emit(next)
			mu.Lock()
			next++
		}
	}()

	err := ForEachWorker(workers, n, func(w, i int) error {
		ferr := fn(w, i)
		mu.Lock()
		done[i] = true
		mu.Unlock()
		cond.Broadcast()
		return ferr
	})
	<-emitted
	return err
}
