// Package consumer is a lint fixture: obs-safety violations in a
// recording component.
package consumer

import "utlb/internal/obs"

// Comp holds a raw recorder, the four-loose-fields shape the Tap
// replaced.
type Comp struct {
	rec obs.Recorder
	tap *obs.Tap
}

// BadDirect records on the raw recorder; a nil check does not make it
// right, because nothing holds the next caller to it.
func (c *Comp) BadDirect() {
	if c.rec != nil {
		c.rec.Record(obs.Event{Kind: obs.KindCacheHit})
	}
}

// GoodTap records through the handle: nil is the disabled path.
func (c *Comp) GoodTap() {
	c.tap.Instant(obs.KindCacheHit, 0)
}

// Forwarder is a Recorder implementation: it may call Record on the
// recorder it wraps, from any of its methods.
type Forwarder struct {
	sink obs.Recorder
	held []obs.Event
}

// Record holds the event back.
func (f *Forwarder) Record(ev obs.Event) { f.held = append(f.held, ev) }

// GoodDrain forwards what Record held.
func (f *Forwarder) GoodDrain() {
	for _, ev := range f.held {
		f.sink.Record(ev)
	}
}

// GoodSuppressed is a documented exception.
func (c *Comp) GoodSuppressed() {
	//lint:ignore obssafety fixture demo of an accepted direct Record call
	c.rec.Record(obs.Event{Kind: obs.KindCacheHit})
}

// BadKindLiteral compares a kind name against a string literal.
func BadKindLiteral(name string) bool {
	return name == "cache_hit"
}

// BadKindSwitch switches on kind-name literals.
func BadKindSwitch(name string) int {
	switch name {
	case "dma_read":
		return 1
	case "not_a_kind": // good: not a taxonomy name
		return 2
	}
	return 0
}

// BadKindConversion fabricates a kind from a numeric literal;
// GoodKindConversion converts a variable (taxonomy iteration).
func BadKindConversion() obs.Kind { return obs.Kind(2) }

// GoodKindConversion converts a loop variable, which is how exporters
// iterate the taxonomy.
func GoodKindConversion(i int) obs.Kind { return obs.Kind(i) }
