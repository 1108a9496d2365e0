package telemetry

import (
	"sync/atomic"
	"time"
)

// Clock supplies wall-clock nanoseconds to the telemetry sink. The
// sink never reads the wall clock directly: every timestamp flows
// through this interface so tests drive the window ring, the SLO
// tracker and the sampler with a ManualClock and assert exact,
// deterministic outputs. WallClock below is the program's one
// sanctioned clock read; TestProgramSource fails on any other.
//
// Now runs on every translation-service request, so an implementation
// must not block or take a lock: a lock taken here, inside xlate's
// request path, can order against the caller's own locks.
// TestTranslationPathNeverBlocks reads this package's two
// implementations; one declared elsewhere is outside its scan.
type Clock interface {
	// Now reports the current time in integer nanoseconds. The epoch
	// is the clock's own business; the sink only ever differences and
	// bucketizes values.
	Now() int64
}

// WallClock is the production adapter: wall-clock nanoseconds since
// the Unix epoch, advanced by the monotonic clock.
type WallClock struct{}

// Now reads the monotonic clock once: the wall epoch plus the time
// elapsed since it. That is one clock read where time.Now makes two,
// and a step of the wall clock (NTP, VM migration) cannot bend a
// measured duration.
func (WallClock) Now() int64 { return wallEpoch.UnixNano() + sinceEpoch() }

// wallEpoch is the wall clock, carrying its monotonic reading, at
// package initialisation; sinceEpoch is the monotonic time since it.
// These two are the program's only clock reads: TestProgramSource
// exempts this file and holds it to exactly time.Now and time.Since.
var wallEpoch, sinceEpoch = time.Now(), func() int64 { return int64(time.Since(wallEpoch)) }

// ManualClock is the deterministic test clock: it starts where you
// put it, moves only when told to, and can optionally auto-tick a
// fixed step on every read so measured durations come out as exact,
// reproducible integers. Safe for concurrent readers.
type ManualClock struct {
	now  atomic.Int64
	tick atomic.Int64
}

// NewManualClock returns a clock frozen at start.
func NewManualClock(start int64) *ManualClock {
	c := &ManualClock{}
	c.now.Store(start)
	return c
}

// Now reports the current manual time, then advances it by the
// configured tick (zero by default: reads don't move time).
func (c *ManualClock) Now() int64 {
	if step := c.tick.Load(); step != 0 {
		return c.now.Add(step) - step
	}
	return c.now.Load()
}

// Advance moves the clock forward by d nanoseconds.
func (c *ManualClock) Advance(d int64) { c.now.Add(d) }

// Set jumps the clock to t.
func (c *ManualClock) Set(t int64) { c.now.Store(t) }

// SetTick makes every Now read advance the clock by step, so paired
// start/end reads yield a deterministic nonzero duration.
func (c *ManualClock) SetTick(step int64) { c.tick.Store(step) }
