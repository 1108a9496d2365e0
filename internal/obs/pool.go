package obs

import (
	"sync"
	"sync/atomic"
)

// ScratchPool hands out reusable scratch of type T: one slot the
// garbage collector never empties, in front of a sync.Pool. A
// collection drains a sync.Pool, so a caller that exports or analyses
// run after run would allocate a fresh scratch after every collection —
// a cost that follows when the collector ran, not the work done. The
// slot keeps one scratch across collections; concurrent callers past
// the first share the pool. The zero value is ready to use and makes
// new scratch with new(T) unless New is set.
type ScratchPool[T any] struct {
	New  func() *T
	slot atomic.Pointer[T]
	pool sync.Pool
}

// Get takes the slot's scratch, else one from the pool, else a new one.
func (p *ScratchPool[T]) Get() *T {
	if sc := p.slot.Swap(nil); sc != nil {
		return sc
	}
	if sc, ok := p.pool.Get().(*T); ok {
		return sc
	}
	if p.New != nil {
		return p.New()
	}
	return new(T)
}

// Put returns sc for reuse: to the slot if it is empty, else to the
// pool.
func (p *ScratchPool[T]) Put(sc *T) {
	if !p.slot.CompareAndSwap(nil, sc) {
		p.pool.Put(sc)
	}
}
