package obs_test

import (
	"io"
	"testing"

	"utlb/internal/obs"
	"utlb/internal/sim"
	"utlb/internal/workload"
)

// BenchmarkWriteChromeTrace times the Chrome export alone, into
// io.Discard, of one recorded run the size of a sim_recorded job: fft
// at a quarter of paper scale under the interrupt design, 1 K-entry
// cache, seed 1998. It reports ns per event and should allocate
// nothing. `make profile-rec` prints its line.
func BenchmarkWriteChromeTrace(b *testing.B) {
	spec, err := workload.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	tr := spec.Generate(workload.Config{Node: 0, FirstPID: 1, Seed: 1998, Scale: 0.25})
	cfg := sim.DefaultConfig()
	cfg.Mechanism, cfg.CacheEntries, cfg.Seed = sim.Interrupt, 1024, 1998
	buf := obs.NewBuffer("fft/Intr")
	cfg.Recorder = buf
	if _, err := sim.RunWith(tr, cfg, sim.NewRunScratch()); err != nil {
		b.Fatal(err)
	}
	runs := []obs.Run{buf.Run()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WriteChromeTrace(io.Discard, runs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*buf.Len()), "ns/event")
}
