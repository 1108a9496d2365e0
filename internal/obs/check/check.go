// Package check folds a recorded event stream and checks the two safety
// invariants the events themselves carry:
//
//   - pin limit: no process' pinned-page count, summed from its pin and
//     unpin spans (the in-kernel variants included), exceeds the run's
//     limit at any instant;
//   - stale entry: no cache hit on a (pid, vpn) follows that key's
//     invalidation or eviction until a fill reinstalls it.
//
// A pin span is recorded whether or not the call pinned, and a call the
// quota refuses is retried, after an eviction or on fewer pages, within
// the same transfer. So a pin that would pass the limit counts as
// refused when its process pins again in the same transfer, and as a
// violation otherwise.
//
// The paper's stronger invariant, that every NI hit targets a pinned
// frame, is not checked here: pin and unpin spans carry page counts, not
// pages, so it waits for per-page pin events.
package check

import (
	"errors"
	"fmt"

	"utlb/internal/obs"
	"utlb/internal/units"
)

// The two violations, for errors.Is.
var (
	ErrPinLimit = errors.New("pinned pages exceed the limit")
	ErrStaleHit = errors.New("cache hit on an invalidated entry")
)

type proc struct {
	node units.NodeID
	pid  units.ProcID
}

type entry struct {
	proc
	vpn uint32
}

// Run checks run's events in recording order against both invariants,
// with pinLimit pages per process (0: no limit), and returns the first
// violation it finds, or nil.
func Run(run obs.Run, pinLimit int) error {
	pinned := map[proc]int{}
	over := map[proc]obs.Event{} // a pin past the limit, not yet retried
	live := map[entry]bool{}     // false: invalidated or evicted since its fill
	overLimit := func(ev obs.Event) error {
		return fmt.Errorf("%w: pid %d on node %d pins %d pages at %v in transfer %d over %d pinned, limit %d",
			ErrPinLimit, ev.PID, ev.Node, ev.Arg, ev.Time, ev.Xfer, pinned[proc{ev.Node, ev.PID}], pinLimit)
	}
	for _, chunk := range run.Chunks() {
		for _, ev := range chunk {
			p := proc{ev.Node, ev.PID}
			switch ev.Kind {
			case obs.KindPin, obs.KindKernelPin:
				if o, ok := over[p]; ok && o.Xfer != ev.Xfer {
					return overLimit(o)
				}
				delete(over, p)
				if n := pinned[p] + int(ev.Arg); pinLimit > 0 && n > pinLimit {
					over[p] = ev
				} else {
					pinned[p] = n
				}
			case obs.KindUnpin, obs.KindKernelUnpin:
				pinned[p] -= int(ev.Arg)
			case obs.KindCacheFill:
				live[entry{p, ev.Arg}] = true
			case obs.KindCacheEvict:
				live[entry{p, ev.Arg}] = false
			case obs.KindCacheInvalidate:
				if ev.Arg2 <= 1 {
					live[entry{p, ev.Arg}] = false
					break
				}
				for e := range live { // a process sweep: Arg2 entries, Arg 0
					if e.proc == p {
						live[e] = false
					}
				}
			case obs.KindCacheHit:
				if ok, seen := live[entry{p, ev.Arg}]; seen && !ok {
					return fmt.Errorf("%w: pid %d vpn %#x on node %d at %v in transfer %d",
						ErrStaleHit, ev.PID, ev.Arg, ev.Node, ev.Time, ev.Xfer)
				}
			}
		}
	}
	for _, o := range over {
		return overLimit(o)
	}
	return nil
}
