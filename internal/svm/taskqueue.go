package svm

import (
	"fmt"

	"utlb/internal/units"
)

// RunTaskFarm executes the task-queue pattern of the paper's Raytrace
// and Volrend ("uses a task-farm model...; communication in this
// application revolves around the task queues", §6.1): a shared work
// queue lives at the front of the region, task results land in
// scattered output pages, and every dequeue crosses the queue lock.
//
// Layout (words):
//
//	[0]            next-task cursor
//	[1..tasks]     task inputs
//	[out..out+n)   task outputs (scattered writes)
//
// Each task i computes a deterministic function of its input and
// writes the result at a pseudo-random output slot, giving the
// irregular page access the task-farm class is known for.
func RunTaskFarm(s *System, tasks int) error {
	outBase := 1 + tasks
	need := (outBase + tasks) * wordBytes
	if need > s.RegionPages()*units.PageSize {
		return fmt.Errorf("svm: %d tasks need %d bytes, region has %d",
			tasks, need, s.RegionPages()*units.PageSize)
	}
	p0 := s.Peer(0)
	if err := p0.StoreWord(0, 0); err != nil {
		return err
	}
	for i := 0; i < tasks; i++ {
		if err := p0.StoreWord(1+i, uint32(i*7+3)); err != nil {
			return err
		}
	}
	if err := s.Barrier(); err != nil {
		return err
	}

	const queueLock = 100
	peers := s.Peers()
	// Workers repeatedly grab tasks until the queue drains. The
	// round-robin outer loop stands in for concurrent workers; each
	// inner step is one dequeue-compute-store cycle.
	for remaining := true; remaining; {
		remaining = false
		for pi := 0; pi < peers; pi++ {
			p := s.Peer(pi)
			s.AcquireLock(p, queueLock)
			cursor, err := p.LoadWord(0)
			if err != nil {
				return err
			}
			if int(cursor) >= tasks {
				if err := s.ReleaseLock(p, queueLock); err != nil {
					return err
				}
				continue
			}
			if err := p.StoreWord(0, cursor+1); err != nil {
				return err
			}
			if err := s.ReleaseLock(p, queueLock); err != nil {
				return err
			}
			remaining = true

			task := int(cursor)
			in, err := p.LoadWord(1 + task)
			if err != nil {
				return err
			}
			result := in*in + 1
			slot := taskSlot(task, tasks)
			s.AcquireLock(p, lockForSlot(slot))
			if err := p.StoreWord(outBase+slot, result); err != nil {
				return err
			}
			if err := s.ReleaseLock(p, lockForSlot(slot)); err != nil {
				return err
			}
		}
	}
	return s.Barrier()
}

// taskSlot scatters task outputs across the output array with a
// multiplicative permutation (odd multiplier => bijective mod 2^k for
// power-of-two sizes; for general sizes it is merely well-spread, and
// the tests' check tolerates collisions by recomputing expectations).
func taskSlot(task, tasks int) int { return (task * 17) % tasks }

// lockForSlot maps output slots onto a small set of locks, modelling
// the per-object locks task farms use when depositing results.
func lockForSlot(slot int) int { return 200 + slot%8 }
