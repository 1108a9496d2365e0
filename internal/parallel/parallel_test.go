package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderPreserved(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		SetWorkers(w)
		got, err := Map(100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d", w, i, v)
			}
		}
	}
	SetWorkers(0)
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Errorf("Map(0) = %v, %v", got, err)
	}
}

func TestMapLowestIndexError(t *testing.T) {
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		_, err := Map(50, func(i int) (int, error) {
			if i%10 == 3 { // fails at 3, 13, 23, ...
				return 0, fmt.Errorf("fail-%d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail-3" {
			t.Errorf("workers=%d: err = %v, want fail-3", w, err)
		}
	}
	SetWorkers(0)
}

func TestSequentialModeRunsInline(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	// Width 1 must stop at the first error without touching later
	// indices — today's sequential loop semantics.
	var calls atomic.Int64
	_, err := Map(10, func(i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			return 0, errors.New("stop")
		}
		return 0, nil
	})
	if err == nil || calls.Load() != 3 {
		t.Errorf("sequential mode ran %d calls (err %v), want 3", calls.Load(), err)
	}
}

func TestNestedMap(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	got, err := Map(8, func(i int) (int, error) {
		inner, err := Map(8, func(j int) (int, error) { return i * j, nil })
		if err != nil {
			return 0, err
		}
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*28 {
			t.Errorf("got[%d] = %d, want %d", i, v, i*28)
		}
	}
}

// TestNestedMapStaysWithinWorkers: a Map inside a task of a full pool
// runs inline, so nested Maps keep at most Workers() tasks in flight,
// not the product of the widths, even right after a wider pool; and
// an inner Map alone in the pool still gets helpers.
func TestNestedMapStaysWithinWorkers(t *testing.T) {
	const width = 4
	SetWorkers(2 * width) // helpers of a wider pool may outlive their Map
	if _, err := Map(64, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	SetWorkers(width)
	defer SetWorkers(0)
	var inFlight, peak atomic.Int64
	leaf := func() {
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	}
	got, err := Map(8, func(i int) (int, error) {
		inner, err := Map(8, func(j int) (int, error) { leaf(); return i * j, nil })
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*28 {
			t.Errorf("got[%d] = %d, want %d", i, v, i*28)
		}
	}
	if p := peak.Load(); p > width {
		t.Errorf("%d leaf tasks in flight at once, want at most %d", p, width)
	}
	pool.mu.Lock()
	if len(pool.jobs) != 0 {
		t.Errorf("%d jobs still listed after Map returned", len(pool.jobs))
	}
	pool.mu.Unlock()

	// One outer task: its inner Map has the whole pool.
	peak.Store(0)
	if _, err := Map(1, func(int) (int, error) {
		return 0, func() error { _, err := Map(16, func(int) (int, error) { leaf(); return 0, nil }); return err }()
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p < 2 {
		t.Errorf("an inner Map alone in the pool ran %d tasks at once, want more than one", p)
	}
}

func TestWorkersDefault(t *testing.T) {
	SetWorkers(0)
	if Workers() < 1 {
		t.Errorf("Workers() = %d", Workers())
	}
	SetWorkers(3)
	if Workers() != 3 {
		t.Errorf("Workers() = %d, want 3", Workers())
	}
	SetWorkers(-5)
	if Workers() < 1 {
		t.Errorf("Workers() after reset = %d", Workers())
	}
	SetWorkers(0)
}
