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
	"slices"
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

// The pool is the helper goroutines every Map call shares, at most
// Workers()-1 of them beside the callers, and the calls in progress.
var pool struct {
	mu      sync.Mutex
	jobs    []*job // innermost last
	helpers int
}

// A job is one Map call's tasks: its caller and any helper claim them
// one index at a time.
type job struct {
	count  int
	next   atomic.Int64 // next index to claim
	failed atomic.Int64 // lowest failing index + 1 (0 = none)
	run    func(i int)
	wg     sync.WaitGroup // helpers inside one of the job's tasks
}

// claim returns the next index to run, or count when none is left.
// Indices past a known failure cannot change the outcome: sequential
// execution would never have reached them.
func (j *job) claim() int {
	for {
		i := int(j.next.Add(1)) - 1
		if f := j.failed.Load(); i >= j.count || f == 0 || i < int(f)-1 {
			return min(i, j.count)
		}
	}
}

// do lists j and runs its tasks on the caller's goroutine, before each
// starting helpers while the pool has room and j unclaimed tasks for
// them. Then, even if a task panicked, it withdraws j and waits for
// the helpers inside it.
func (j *job) do() {
	pool.mu.Lock()
	pool.jobs = append(pool.jobs, j)
	pool.mu.Unlock()
	defer func() {
		pool.mu.Lock()
		pool.jobs = slices.DeleteFunc(pool.jobs, func(o *job) bool { return o == j })
		pool.mu.Unlock()
		j.wg.Wait()
	}()
	for i := j.claim(); i < j.count; i = j.claim() {
		pool.mu.Lock()
		for n := j.count - int(j.next.Load()); n > 0 && pool.helpers < Workers()-1; n-- {
			pool.helpers++
			go help()
		}
		pool.mu.Unlock()
		j.run(i)
	}
}

// help runs tasks of the innermost job that has some unclaimed, one at
// a time, until none has or there are more helpers than the width now
// allows: finishing the calls already started before starting more
// keeps about Workers() runs alive at once.
func help() {
	for {
		pool.mu.Lock()
		k := len(pool.jobs) - 1
		for k >= 0 && int(pool.jobs[k].next.Load()) >= pool.jobs[k].count {
			k--
		}
		if k < 0 || pool.helpers >= Workers() { // none left, or the width dropped
			pool.helpers--
			pool.mu.Unlock()
			return
		}
		j := pool.jobs[k]
		j.wg.Add(1) // while j is listed, so before its caller's Wait
		pool.mu.Unlock()
		if i := j.claim(); i < j.count {
			j.run(i)
		}
		j.wg.Done()
	}
}

// Map runs fn(0) .. fn(count-1) with at most Workers() of them in
// flight and returns the results in index order. When more than one
// task fails, the error of the lowest index is returned, matching what
// a sequential loop would have reported first; results are only valid
// when the error is nil.
//
// The caller runs tasks itself and starts pool helpers while there is
// room; helpers take tasks from the innermost Map in progress. So a Map
// nested in a task of a full pool runs inline until a helper is free,
// and however deeply Maps nest the tasks in flight stay at most
// Workers(), plus one per concurrent outermost caller.
func Map[T any](count int, fn func(i int) (T, error)) ([]T, error) {
	if count <= 0 {
		return nil, nil
	}
	results, errs := make([]T, count), make([]error, count)
	j := &job{count: count}
	j.run = func(i int) {
		v, err := fn(i)
		if err == nil {
			results[i] = v
			return
		}
		errs[i] = err
		for {
			f := j.failed.Load()
			if f != 0 && int(f)-1 <= i || j.failed.CompareAndSwap(f, int64(i)+1) {
				return
			}
		}
	}
	j.do()
	if f := j.failed.Load(); f != 0 {
		return nil, errs[int(f)-1]
	}
	return results, nil
}
