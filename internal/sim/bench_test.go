package sim

// Inner-loop micro-benchmarks: the classifier and Run sit on the
// per-page hot path of every experiment. Run with:
//
//	go test -run '^$' -bench 'BenchmarkClassifier|BenchmarkSimRun' -benchmem ./internal/sim
import (
	"testing"

	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/workload"
)

// BenchmarkClassifier drives the 3C classifier with a working set
// twice the shadow-cache capacity, so references steadily alternate
// between shadow hits, evictions and re-insertions — the steady state
// of a capacity-constrained run.
func BenchmarkClassifier(b *testing.B) {
	const capacity = 1024
	cls := newClassifier(capacity)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := units.VPN(i % (2 * capacity))
		cls.classify(&res, 1, vpn, i%3 == 0)
	}
}

// BenchmarkClassifierHit is the pure shadow-hit path: the whole
// working set is resident, so every reference is one map lookup plus a
// list move.
func BenchmarkClassifierHit(b *testing.B) {
	const capacity = 4096
	cls := newClassifier(capacity)
	var res Result
	for v := units.VPN(0); v < capacity/2; v++ {
		cls.classify(&res, 1, v, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.classify(&res, 1, units.VPN(i%(capacity/2)), false)
	}
}

// BenchmarkSimRun times one full trace-driven UTLB run per iteration,
// on a memoised (pre-sorted) workload trace — the unit of work the
// parallel experiment engine fans out.
func BenchmarkSimRun(b *testing.B) {
	spec, err := workload.ByName("water-spatial")
	if err != nil {
		b.Fatal(err)
	}
	tr := spec.GenerateCached(workload.Config{Node: 0, FirstPID: 1, Seed: 1998, Scale: 0.1})
	cfg := DefaultConfig()
	cfg.CacheEntries = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRunPaper is the engine at paper scale: one Table-3
// application (fft, scale 1.0) through both mechanisms on one warm
// RunScratch per iteration — the unit the bench's sim_paper workload
// repeats over all seven applications. allocs/op and B/op here are the
// per-run setup cost that scratch reuse is supposed to keep flat.
func BenchmarkSimRunPaper(b *testing.B) {
	tr := genApp(b, "fft", 1.0)
	scr := NewRunScratch()
	run := func() {
		for _, mech := range []Mechanism{UTLB, Interrupt} {
			cfg := DefaultConfig()
			cfg.Mechanism = mech
			cfg.CacheEntries = 1024
			if _, err := RunWith(tr, cfg, scr); err != nil {
				b.Fatal(err)
			}
		}
	}
	run() // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkSimRunPinLimited is the eviction-heavy regime of Table 7
// and the policy ablation on a recycled scratch: an unlimited run grows
// the per-process tables first, then every iteration replays the same
// application under a 1024-page pin limit, where almost every miss
// scans for a victim. The scan must cost the pages tracked now, not
// the capacity an earlier run left behind.
func BenchmarkSimRunPinLimited(b *testing.B) {
	tr := genApp(b, "fft", 1.0)
	scr := NewRunScratch()
	if _, err := RunWith(tr, DefaultConfig(), scr); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PinLimitPages = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWith(tr, cfg, scr); err != nil {
			b.Fatal(err)
		}
	}
}

func genApp(tb testing.TB, name string, scale float64) trace.Trace {
	tb.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return spec.GenerateCached(workload.Config{Node: 0, FirstPID: 1, Seed: 1998, Scale: scale})
}
