package event

import (
	"slices"

	"utlb/internal/units"
)

// Pool is a bank of identical DMA channels, each a units.Clock whose
// Now is when the channel next frees and whose Busy is its occupancy.
// Channel selection is a pure function of the request sequence.
type Pool struct {
	chans []units.Clock
}

// NewPool returns a pool of n channels, at least one.
func NewPool(n int) *Pool {
	p := &Pool{}
	p.Reset(n)
	return p
}

// Reset makes p a pool of n idle channels, at least one, reusing the
// channel array when it is large enough.
func (p *Pool) Reset(n int) {
	n = max(n, 1)
	p.chans = slices.Grow(p.chans[:0], n)[:n]
	clear(p.chans)
}

// Reserve books dur of exclusive use, no earlier than ready, on the
// earliest-free channel (lowest index on ties) and returns the booked
// [start, end) window and the channel. A negative dur clamps to zero.
func (p *Pool) Reserve(ready, dur units.Time) (start, end units.Time, ch int) {
	for i := range p.chans {
		if p.chans[i].Now() < p.chans[ch].Now() {
			ch = i
		}
	}
	c := &p.chans[ch]
	c.AdvanceTo(ready)
	start = c.Now()
	c.Advance(max(dur, 0))
	return start, c.Now(), ch
}

// Horizon reports when the whole pool drains.
func (p *Pool) Horizon() (h units.Time) {
	for i := range p.chans {
		h = max(h, p.chans[i].Now())
	}
	return h
}

// Busy reports the summed occupied time across all channels.
func (p *Pool) Busy() (b units.Time) {
	for i := range p.chans {
		b += p.chans[i].Busy()
	}
	return b
}
