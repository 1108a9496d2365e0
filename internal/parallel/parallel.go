// Package parallel is the repo's worker-pool execution engine: it fans
// independent computations (simulation runs, trace generations, whole
// experiments) out across a bounded set of goroutines while keeping
// results in submission order, so parallel execution is byte-identical
// to sequential execution. Every experiment loop in
// internal/experiments routes through Map; the pool width is
// process-wide and set once from cmd/utlbsim's -parallel flag (or
// utlb.SetParallelism).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the configured pool width; 0 means GOMAXPROCS.
var workers atomic.Int64

// SetWorkers fixes the pool width for subsequent Map calls. n <= 0
// resets to the default (GOMAXPROCS at call time). Width 1 runs every
// task inline on the caller's goroutine, preserving strictly
// sequential behaviour.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// Workers reports the effective pool width.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(0) .. fn(count-1) with at most Workers() of them in
// flight and returns the results in index order. When more than one
// task fails, the error of the lowest index is returned, matching what
// a sequential loop would have reported first; results are only valid
// when the error is nil.
//
// Map may be nested (a mapped task may itself call Map); each call
// sizes its own worker set, and the Go scheduler multiplexes the
// goroutines onto GOMAXPROCS threads.
func Map[T any](count int, fn func(i int) (T, error)) ([]T, error) {
	if count <= 0 {
		return nil, nil
	}
	results := make([]T, count)
	w := Workers()
	if w > count {
		w = count
	}
	if w <= 1 {
		for i := 0; i < count; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	}

	var (
		next   atomic.Int64 // next index to claim
		failed atomic.Int64 // lowest failing index + 1 (0 = none)
		errs   = make([]error, count)
		wg     sync.WaitGroup
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				// Indices past a known failure cannot change the outcome:
				// sequential execution would never have reached them.
				if f := failed.Load(); f != 0 && i > int(f)-1 {
					continue
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					for {
						f := failed.Load()
						if f != 0 && int(f)-1 <= i {
							break
						}
						if failed.CompareAndSwap(f, int64(i)+1) {
							break
						}
					}
					continue
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()
	if f := failed.Load(); f != 0 {
		return nil, errs[int(f)-1]
	}
	return results, nil
}
