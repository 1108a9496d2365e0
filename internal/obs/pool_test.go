package obs

import (
	"runtime"
	"sync"
	"testing"
)

// TestScratchPoolKeepsOneThroughCollections: the slot's scratch is
// what the next Get returns, collections or not; New, or new(T) when
// New is unset, makes one only when slot and pool are both empty.
func TestScratchPoolKeepsOneThroughCollections(t *testing.T) {
	made := 0
	p := ScratchPool[[4]int]{New: func() *[4]int { made++; return new([4]int) }}
	a := p.Get()
	p.Put(a)
	runtime.GC()
	runtime.GC()
	if b := p.Get(); b != a || made != 1 {
		t.Errorf("after two collections Get returned %p (made %d), want the kept %p (made 1)", b, made, a)
	}
	var zero ScratchPool[int]
	if zero.Get() == nil {
		t.Error("a zero ScratchPool returned nil")
	}
}

// TestScratchPoolHandsEachScratchToOneCaller: concurrent callers never
// share a scratch; a second Put while the slot is full goes to the pool.
// Run under -race.
func TestScratchPoolHandsEachScratchToOneCaller(t *testing.T) {
	var p ScratchPool[int]
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				sc := p.Get()
				*sc = g
				runtime.Gosched()
				if *sc != g {
					t.Errorf("goroutine %d's scratch was overwritten with %d", g, *sc)
					return
				}
				p.Put(sc)
			}
		}()
	}
	wg.Wait()
}
