package obs

import (
	"fmt"

	"utlb/internal/units"
)

// Tap is the recording handle the layers of one simulated node share:
// where events go, which node they are stamped with, and the transfer
// in progress. A nil *Tap is the disabled path — every method is a
// no-op behind one pointer compare, so a layer holds a *Tap that is nil
// by default and calls it unconditionally. Layers pass start time,
// duration, pid and arguments themselves: clocks differ per layer and
// stay with the layer.
//
// The transfer cursor carries the "current transfer" through a
// synchronous call chain. Every handle of one simulation shares it (a
// whole VMMC cluster does: execution is synchronous, so the sender's id
// flows into the receiver's deposit events). A Tap is single-goroutine,
// like the Buffer it feeds.
type Tap struct {
	rec  Recorder
	xfer *xferCursor
	node units.NodeID
	own  xferCursor // what xfer points at in the handle NewTap returns
}

// xferCursor allocates transfer ids, dense from 1 in execution order.
type xferCursor struct {
	next uint32
	cur  uint32
}

// NewTap returns node's handle on r with a fresh transfer cursor, or
// nil — recording disabled — when r is nil.
func NewTap(r Recorder, node units.NodeID) *Tap {
	if r == nil {
		return nil
	}
	t := &Tap{rec: r, node: node}
	t.xfer = &t.own
	return t
}

// ForNode returns a handle for another node of the same simulation: the
// same recorder and transfer cursor, stamped node.
func (t *Tap) ForNode(node units.NodeID) *Tap {
	if t == nil {
		return nil
	}
	return &Tap{rec: t.rec, xfer: t.xfer, node: node}
}

// Span records a kind event covering [start, start+dur) on the calling
// layer's clock, stamped with the handle's node and current transfer.
func (t *Tap) Span(kind Kind, start, dur units.Time, pid units.ProcID, arg, arg2 uint64) {
	if t != nil {
		t.record(kind, start, dur, pid, arg, arg2)
	}
}

// Instant records a zero-duration kind event at time at.
func (t *Tap) Instant(kind Kind, at units.Time, pid units.ProcID, arg, arg2 uint64) {
	if t != nil {
		t.record(kind, at, 0, pid, arg, arg2)
	}
}

// record stamps and records one event. An Event keeps its arguments
// in 32 bits; a wider one is a programming error in the calling layer,
// so it panics rather than record a truncated value.
func (t *Tap) record(kind Kind, start, dur units.Time, pid units.ProcID, arg, arg2 uint64) {
	if (arg|arg2)>>32 != 0 {
		argRangePanic(kind, arg, arg2)
	}
	t.rec.Record(Event{
		Time: start, Dur: dur, Arg: uint32(arg), Arg2: uint32(arg2),
		Xfer: t.xfer.cur, PID: pid, Node: t.node, Kind: kind,
	})
}

// argRangePanic reports an argument that does not fit an Event.
func argRangePanic(kind Kind, arg, arg2 uint64) {
	panic(fmt.Sprintf("obs: %s argument out of range (arg %d, arg2 %d; an event holds 32 bits)", kind, arg, arg2))
}

// InstantOn records an instant on node's track, outside any transfer:
// the switched fabric serves every node, and a wire fault belongs to
// the packet's sender, not to one handle's node or the transfer whose
// command happened to be executing.
func (t *Tap) InstantOn(node units.NodeID, kind Kind, at units.Time, arg uint64) {
	if t != nil {
		if arg>>32 != 0 {
			argRangePanic(kind, arg, 0)
		}
		t.rec.Record(Event{Time: at, Arg: uint32(arg), Node: node, Kind: kind})
	}
}

// Begin starts a new transfer: it allocates the next id, makes it
// current, and returns it (0 when disabled).
func (t *Tap) Begin() uint64 {
	if t == nil {
		return 0
	}
	t.xfer.next++
	t.xfer.cur = t.xfer.next
	return uint64(t.xfer.cur)
}

// Clear marks that no transfer is in progress.
func (t *Tap) Clear() {
	if t != nil {
		t.xfer.cur = 0
	}
}
