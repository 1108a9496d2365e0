// Package obs is a lint fixture: a miniature of the real taxonomy so
// the obssafety rule can harvest kind names and resolve Recorder.
package obs

// Kind is the event taxonomy.
type Kind uint8

// The taxonomy constants.
const (
	KindNone Kind = iota
	KindCacheHit
	KindDMARead
	numKinds
)

type kindMeta struct {
	name string
}

var kindMetas = [numKinds]kindMeta{
	KindNone:     {name: "none"},
	KindCacheHit: {name: "cache_hit"},
	KindDMARead:  {name: "dma_read"},
}

// String reports the kind's display name.
func (k Kind) String() string { return kindMetas[k].name }

// Event is one recorded occurrence.
type Event struct {
	Kind Kind
	Arg  uint64
}

// Recorder receives events.
type Recorder interface {
	Record(Event)
}

// Tap is the recording handle; a nil *Tap is the disabled path. Inside
// this package Record may be called freely.
type Tap struct {
	rec Recorder
}

// Instant records one event, or nothing on a nil handle.
func (t *Tap) Instant(kind Kind, arg uint64) {
	if t != nil {
		t.rec.Record(Event{Kind: kind, Arg: arg})
	}
}
