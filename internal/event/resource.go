package event

import "utlb/internal/units"

// Timeline models one serially-reusable resource — a DMA channel, an
// interrupt line, the page-pin lock — as a busy-until horizon.
// Reserve serialises work on the resource: a request that arrives
// while the resource is busy starts when it frees, one that arrives
// while it is idle starts immediately. This is the standard
// "resource timeline" of discrete-event simulation, reduced to the
// one operation the simulators need.
type Timeline struct {
	free units.Time // the instant the resource next becomes idle
	busy units.Time // total occupied time, for utilisation reporting
}

// Reserve books dur units of exclusive use no earlier than ready and
// returns the booked [start, end) window. Negative durations clamp to
// zero (an instantaneous touch still orders against the horizon).
func (t *Timeline) Reserve(ready, dur units.Time) (start, end units.Time) {
	if dur < 0 {
		dur = 0
	}
	start = ready
	if t.free > start {
		start = t.free
	}
	end = start + dur
	t.free = end
	t.busy += dur
	return start, end
}

// Free reports when the resource next becomes idle.
func (t *Timeline) Free() units.Time { return t.free }

// Busy reports the total time the resource has been occupied.
func (t *Timeline) Busy() units.Time { return t.busy }

// Pool is a bank of identical resources — multi-channel DMA engines.
// Reserve picks the channel that can start the request earliest,
// breaking ties toward the lowest index so channel selection is a
// pure function of the request sequence (deterministic at any
// -parallel width).
type Pool struct {
	chans []Timeline
}

// NewPool returns a pool of n channels; n < 1 is treated as 1 so a
// zero-configured pool still serialises instead of panicking.
func NewPool(n int) *Pool {
	p := &Pool{}
	p.Reset(n)
	return p
}

// Reset makes p a pool of n idle channels (n < 1 is treated as 1, as in
// NewPool), reusing the channel array when it is large enough.
func (p *Pool) Reset(n int) {
	n = max(n, 1)
	if cap(p.chans) < n {
		p.chans = make([]Timeline, n)
	}
	p.chans = p.chans[:n]
	clear(p.chans)
}

// Size reports the number of channels.
func (p *Pool) Size() int { return len(p.chans) }

// Reserve books dur on the earliest-available channel (lowest index on
// ties) and returns the booked window plus the channel index.
func (p *Pool) Reserve(ready, dur units.Time) (start, end units.Time, ch int) {
	ch = 0
	for i := 1; i < len(p.chans); i++ {
		if p.chans[i].free < p.chans[ch].free {
			ch = i
		}
	}
	start, end = p.chans[ch].Reserve(ready, dur)
	return start, end, ch
}

// Horizon reports the latest busy-until instant across all channels —
// when the whole pool drains.
func (p *Pool) Horizon() units.Time {
	var h units.Time
	for i := range p.chans {
		if p.chans[i].free > h {
			h = p.chans[i].free
		}
	}
	return h
}

// Busy reports the summed occupied time across all channels.
func (p *Pool) Busy() units.Time {
	var b units.Time
	for i := range p.chans {
		b += p.chans[i].busy
	}
	return b
}
