package fault

import (
	"errors"
	"fmt"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var p *Point
	if p.Fire() {
		t.Fatal("nil point fired")
	}
	if p.Site() != "" || p.Checks() != 0 || p.Fired() != 0 {
		t.Fatal("nil point reported state")
	}
	var inj *Injector
	if inj.Point(SiteHostPin) != nil {
		t.Fatal("nil injector armed a point")
	}
	if inj.Fired() != 0 || inj.FiredAt(SiteHostPin) != 0 {
		t.Fatal("nil injector reported state")
	}
}

func TestDisabledPathAllocs(t *testing.T) {
	var p *Point
	allocs := testing.AllocsPerRun(1000, func() {
		if p.Fire() {
			t.Fatal("nil point fired")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil Point.Fire allocates %v/op, want 0", allocs)
	}
}

func TestUnarmedSitesAreNil(t *testing.T) {
	inj := NewInjector(1, Plan{
		SiteHostPin:   {Rate: 0.5},
		SiteCacheFill: {}, // zero config can never fire
	})
	if inj.Point(SiteHostPin) == nil {
		t.Fatal("planned site not armed")
	}
	if inj.Point(SiteFabricDrop) != nil {
		t.Fatal("unplanned site armed")
	}
	if inj.Point(SiteCacheFill) != nil {
		t.Fatal("zero-config site armed")
	}
}

func TestPointIdentityShared(t *testing.T) {
	inj := NewInjector(7, Plan{SiteHostPin: {Every: 2}})
	a, b := inj.Point(SiteHostPin), inj.Point(SiteHostPin)
	if a != b {
		t.Fatal("same site returned distinct points")
	}
	a.Fire()
	if b.Checks() != 1 {
		t.Fatal("point state not shared")
	}
}

func TestSchedule(t *testing.T) {
	inj := NewInjector(1, Plan{"s": {Every: 3, After: 2}})
	p := inj.Point("s")
	var got []int
	for i := 1; i <= 12; i++ {
		if p.Fire() {
			got = append(got, i)
		}
	}
	want := []int{5, 8, 11} // grace of 2, then every 3rd check
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("schedule fired at %v, want %v", got, want)
	}
	if p.Fired() != 3 || p.Checks() != 12 {
		t.Fatalf("counters fired=%d checks=%d", p.Fired(), p.Checks())
	}
}

// TestRateDeterminism pins the seeded stream: the same (seed, site)
// must fire on exactly the same checks in two independent injectors,
// and a different seed must (for this configuration) differ.
func TestRateDeterminism(t *testing.T) {
	pattern := func(seed int64) string {
		p := NewInjector(seed, Plan{"s": {Rate: 0.3}}).Point("s")
		out := make([]byte, 64)
		for i := range out {
			if p.Fire() {
				out[i] = '1'
			} else {
				out[i] = '0'
			}
		}
		return string(out)
	}
	if pattern(42) != pattern(42) {
		t.Fatal("same seed produced different fault schedules")
	}
	if pattern(42) == pattern(43) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

// TestSiteIndependence: firing order at one site must not depend on
// how often other sites are checked — each site draws its own stream.
func TestSiteIndependence(t *testing.T) {
	run := func(noise int) string {
		inj := NewInjector(9, Plan{"a": {Rate: 0.4}, "b": {Rate: 0.4}})
		a, b := inj.Point("a"), inj.Point("b")
		out := make([]byte, 32)
		for i := range out {
			for j := 0; j < noise; j++ {
				b.Fire() // interleaved checks at the other site
			}
			if a.Fire() {
				out[i] = '1'
			} else {
				out[i] = '0'
			}
		}
		return string(out)
	}
	if run(0) != run(5) {
		t.Fatal("site a's schedule shifted with site b's check count")
	}
}

func TestErrInjectedWrapping(t *testing.T) {
	err := fmt.Errorf("layer: something broke: %w", ErrInjected)
	if !errors.Is(err, ErrInjected) {
		t.Fatal("wrapped ErrInjected not detected")
	}
}
