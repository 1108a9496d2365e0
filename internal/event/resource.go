package event

import (
	"slices"

	"utlb/internal/units"
)

// Pool is a bank of identical DMA channels, each a units.Clock whose
// Now is when the channel next frees, whose Busy is its occupancy and
// whose rows say what occupied it. Channel selection is a pure
// function of the request sequence.
type Pool struct {
	chans   []units.Clock
	ledgers []units.Ledger // the channels' rows, kept across Resets
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
	p.ledgers = slices.Grow(p.ledgers[:0], n)[:n]
	for i := range p.chans {
		p.chans[i] = units.Clock{}
		p.chans[i].KeepIn(&p.ledgers[i])
	}
}

// Take returns the earliest-free channel (lowest index on ties),
// brought up to ready, and its index. The caller charges its transfer
// to the channel, whose booking runs from its Now before the charges
// to its Now after.
func (p *Pool) Take(ready units.Time) (c *units.Clock, ch int) {
	for i := range p.chans {
		if p.chans[i].Now() < p.chans[ch].Now() {
			ch = i
		}
	}
	c = &p.chans[ch]
	c.AdvanceTo(ready)
	return c, ch
}

// Reserve books dur of exclusive use, no earlier than ready, on the
// channel Take picks, charged as one booking, and returns the booked
// [start, end) window and the channel. A negative dur clamps to zero.
func (p *Pool) Reserve(ready, dur units.Time) (start, end units.Time, ch int) {
	c, ch := p.Take(ready)
	start = c.Now()
	c.Charge(units.RowBooking, 1, max(dur, 0))
	return start, c.Now(), ch
}

// Line reports row's tally summed over the channels.
func (p *Pool) Line(row units.Row) (l units.Line) {
	for i := range p.chans {
		l.Count += p.chans[i].Line(row).Count
		l.Total += p.chans[i].Line(row).Total
	}
	return l
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
