package utlb

// One benchmark per paper table/figure (regenerating the experiment at
// reduced scale), plus micro-benchmarks of the hot paths the paper
// times in microseconds. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks measure the cost of reproducing the
// result, not the simulated times themselves — those are printed by
// cmd/utlbsim and recorded in EXPERIMENTS.md.

import (
	"io"
	"testing"

	"utlb/internal/bus"
	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/phys"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
	"utlb/internal/vm"
)

// benchOpts shrinks the workloads so the full bench suite runs in
// seconds; pass -bench-scale via experiments at full size in utlbsim.
func benchOpts() ExperimentOptions {
	return ExperimentOptions{Scale: 0.05, Seed: 1998, Apps: []string{"barnes", "fft"}}
}

func benchExperiment(b *testing.B, name string, opts ExperimentOptions) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(name, opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1HostOverhead regenerates Table 1 (host-side check,
// pin, unpin costs).
func BenchmarkTable1HostOverhead(b *testing.B) { benchExperiment(b, "table1", benchOpts()) }

// BenchmarkTable2NIOverhead regenerates Table 2 (NIC hit, DMA and
// miss costs vs prefetch width).
func BenchmarkTable2NIOverhead(b *testing.B) { benchExperiment(b, "table2", benchOpts()) }

// BenchmarkTable3Workloads regenerates Table 3 (workload calibration).
func BenchmarkTable3Workloads(b *testing.B) { benchExperiment(b, "table3", benchOpts()) }

// BenchmarkTable4UTLBvsIntr regenerates Table 4 (UTLB vs interrupt
// baseline, infinite memory).
func BenchmarkTable4UTLBvsIntr(b *testing.B) { benchExperiment(b, "table4", benchOpts()) }

// BenchmarkTable5Limited regenerates Table 5 (4 MB pin quota).
func BenchmarkTable5Limited(b *testing.B) { benchExperiment(b, "table5", benchOpts()) }

// BenchmarkTable6LookupCost regenerates Table 6 (average lookup cost).
func BenchmarkTable6LookupCost(b *testing.B) { benchExperiment(b, "table6", benchOpts()) }

// BenchmarkTable7Prepin regenerates Table 7 (1- vs 16-page
// pre-pinning).
func BenchmarkTable7Prepin(b *testing.B) { benchExperiment(b, "table7", benchOpts()) }

// BenchmarkTable8Assoc regenerates Table 8 (size x associativity
// sweep).
func BenchmarkTable8Assoc(b *testing.B) { benchExperiment(b, "table8", benchOpts()) }

// BenchmarkFig7MissBreakdown regenerates Figure 7 (3C breakdown).
func BenchmarkFig7MissBreakdown(b *testing.B) { benchExperiment(b, "fig7", benchOpts()) }

// BenchmarkFig8Prefetch regenerates Figure 8 (prefetch sweep on
// Radix).
func BenchmarkFig8Prefetch(b *testing.B) {
	opts := benchOpts()
	opts.Apps = nil // fig8 is radix-only by construction
	benchExperiment(b, "fig8", opts)
}

// BenchmarkAblationPolicies sweeps the five replacement policies.
func BenchmarkAblationPolicies(b *testing.B) {
	opts := ExperimentOptions{Scale: 0.03, Seed: 7, Apps: []string{"water-spatial"}}
	benchExperiment(b, "ablation-policies", opts)
}

// BenchmarkAblationPerProcess compares per-process vs shared-cache
// UTLB designs.
func BenchmarkAblationPerProcess(b *testing.B) {
	opts := ExperimentOptions{Scale: 0.03, Seed: 7, Apps: []string{"water-spatial"}}
	benchExperiment(b, "ablation-perprocess", opts)
}

// --- Hot-path micro-benchmarks -------------------------------------

// BenchmarkSharedCacheLookupHit times the Shared UTLB-Cache hit path
// (the operation the paper charges 0.8 µs of simulated time).
func BenchmarkSharedCacheLookupHit(b *testing.B) {
	c := tlbcache.New(tlbcache.Config{Entries: 8192, Ways: 1, IndexOffset: true})
	key := tlbcache.Key{PID: 1, VPN: 42}
	c.Insert(key, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := c.Lookup(key); !r.Hit {
			b.Fatal("miss")
		}
	}
}

// BenchmarkSharedCacheLookupMiss times the miss detection path.
func BenchmarkSharedCacheLookupMiss(b *testing.B) {
	c := tlbcache.New(tlbcache.Config{Entries: 8192, Ways: 4, IndexOffset: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(tlbcache.Key{PID: 2, VPN: units.VPN(i)})
	}
}

// BenchmarkBitVectorCheckHit times the user-level check fast path
// (simulated at 0.2 µs).
func BenchmarkBitVectorCheckHit(b *testing.B) {
	clk := units.NewClock()
	bv := core.NewBitVector(1<<16, hostos.DefaultCosts(), clk)
	bv.Set(0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bv.Check(0, 1) != nil {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkTranslateHit times the full NIC-side translation on a warm
// cache, including cost accounting.
func BenchmarkTranslateHit(b *testing.B) {
	host := hostos.New(0, 64*units.MB, hostos.DefaultCosts())
	clk := units.NewClock()
	ioBus := bus.New(host.Memory(), clk, bus.DefaultCosts())
	nic := nicsim.New(0, units.MB, clk, ioBus, nicsim.DefaultCosts())
	drv, err := core.NewDriver(host, nic, tlbcache.Config{Entries: 8192, Ways: 1, IndexOffset: true})
	if err != nil {
		b.Fatal(err)
	}
	proc, _ := host.Spawn(1, "bench", vm.NewSpace(1, host.Memory(), 0))
	lib, err := core.NewLib(drv, proc, core.LibConfig{Policy: core.LRU})
	if err != nil {
		b.Fatal(err)
	}
	if err := lib.Lookup(0, units.PageSize); err != nil {
		b.Fatal(err)
	}
	tr := core.NewTranslator(drv, 1)
	tr.Translate(1, 0) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, info := tr.Translate(1, 0); !info.Hit {
			b.Fatal("miss")
		}
	}
}

// BenchmarkSimulateUTLB times the trace-driven simulator end to end
// (UTLB mechanism), reported per simulated lookup.
func BenchmarkSimulateUTLB(b *testing.B) {
	tr, err := GenerateTrace("water-spatial", 1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig()
	cfg.CacheEntries = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateUTLBScratch is BenchmarkSimulateUTLB with
// caller-owned scratch (SimulateWith): the steady-state cost of one
// run when every reusable structure — cache storage, classifier,
// per-process library state, batch buffers — survives from the last
// run. TestSimulateRunAllocBudget gates the allocs/op of this path.
func BenchmarkSimulateUTLBScratch(b *testing.B) {
	tr, err := GenerateTrace("water-spatial", 1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig()
	cfg.CacheEntries = 1024
	scr := NewSimScratch()
	if _, err := SimulateWith(tr, cfg, scr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateWith(tr, cfg, scr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateBulkBatch runs the multi-page bulk-transfer
// workload through the batched translation path (8 pages per firmware
// dispatch). Batching changes simulated NIC time, not host wall-clock:
// this benchmark tracks that the batch path itself stays allocation-
// free and comparable in speed to the page-at-a-time loop.
func BenchmarkSimulateBulkBatch(b *testing.B) {
	tr := GenerateBulkTrace(0, 1, 1998, 0.25)
	cfg := DefaultSimConfig()
	cfg.BatchPages = 8
	scr := NewSimScratch()
	if _, err := SimulateWith(tr, cfg, scr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateWith(tr, cfg, scr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateUTLBObserved is the recorder-enabled counterpart of
// BenchmarkSimulateUTLB: the delta between the two is the full cost of
// event recording (buffer appends; the exporters are not timed).
func BenchmarkSimulateUTLBObserved(b *testing.B) {
	tr, err := GenerateTrace("water-spatial", 1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig()
	cfg.CacheEntries = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Recorder = NewEventBuffer("bench")
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateInterrupt is the baseline counterpart.
func BenchmarkSimulateInterrupt(b *testing.B) {
	tr, err := GenerateTrace("water-spatial", 1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig()
	cfg.Mechanism = Interrupt
	cfg.CacheEntries = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMMCSendPage times one live one-page remote store through
// the full stack: UTLB lookup, firmware translation, DMA, reliable
// link, deposit.
func BenchmarkVMMCSendPage(b *testing.B) {
	cluster, err := NewCluster(ClusterOptions{Nodes: 2})
	if err != nil {
		b.Fatal(err)
	}
	sender, err := cluster.Node(0).NewProcess(1, "s", 0, LibConfig{Policy: LRU})
	if err != nil {
		b.Fatal(err)
	}
	receiver, err := cluster.Node(1).NewProcess(2, "r", 0, LibConfig{Policy: LRU})
	if err != nil {
		b.Fatal(err)
	}
	buf, err := receiver.Export(0x2000_0000, PageSize)
	if err != nil {
		b.Fatal(err)
	}
	imp, err := sender.Import(1, buf)
	if err != nil {
		b.Fatal(err)
	}
	if err := sender.Write(0x1000_0000, make([]byte, PageSize)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Send(imp, 0, 0x1000_0000, PageSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration times trace synthesis itself.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateTrace("radix", int64(i), 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGen times one cold workload-trace generation per
// iteration (distinct seeds defeat the memoised trace store), the
// operation the store amortises across experiments.
func BenchmarkTraceGen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateTrace("water-spatial", int64(i+1), 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllSequential regenerates the full experiment suite at
// worker-pool width 1 — the seed repo's strictly sequential path.
func BenchmarkRunAllSequential(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkRunAllParallel is the same suite at GOMAXPROCS width; on a
// multi-core machine the wall-clock ratio to BenchmarkRunAllSequential
// is the experiment engine's speedup (the two outputs are
// byte-identical — see internal/experiments determinism tests).
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0) }

func benchRunAll(b *testing.B, width int) {
	b.Helper()
	SetParallelism(width)
	defer SetParallelism(0)
	opts := benchOpts()
	opts.Nodes = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunAllExperiments(opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMultiprog mixes independent applications in the
// shared cache.
func BenchmarkAblationMultiprog(b *testing.B) {
	opts := ExperimentOptions{Scale: 0.05, Seed: 7, Apps: []string{"barnes", "water-spatial"}}
	benchExperiment(b, "ablation-multiprog", opts)
}

// BenchmarkSVMJacobi runs the Jacobi kernel over the SVM protocol on a
// live 4-node cluster (every fault and diff flush crosses the UTLB).
func BenchmarkSVMJacobi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSVM(SVMConfig{Peers: 4, RegionPages: 32})
		if err != nil {
			b.Fatal(err)
		}
		if err := RunJacobi(sys, 4096, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableSwapInOut cycles a second-level table through the
// paging path of section 3.3.
func BenchmarkTableSwapInOut(b *testing.B) {
	mem := phys.NewMemory(64 * units.PageSize)
	garbage, err := mem.Alloc()
	if err != nil {
		b.Fatal(err)
	}
	tbl := core.NewTable(1, mem, garbage)
	tbl.AttachDisk(core.NewDisk(core.DefaultDiskAccessTime))
	if err := tbl.Install(0, 5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.SwapOut(0, true); err != nil {
			b.Fatal(err)
		}
		if err := tbl.SwapIn(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplacementPolicies measures victim selection across the
// five policies at a realistic pinned-set size.
func BenchmarkReplacementPolicies(b *testing.B) {
	for _, kind := range []core.PolicyKind{core.LRU, core.MRU, core.LFU, core.MFU, core.Random} {
		b.Run(kind.String(), func(b *testing.B) {
			p := core.NewPolicy(kind, 1)
			for v := units.VPN(0); v < 2048; v++ {
				p.Insert(v)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Touch(units.VPN(i % 2048))
				if i%64 == 0 {
					if v, ok := p.Victim(); ok {
						p.Remove(v)
						p.Insert(v)
					}
				}
			}
		})
	}
}

// BenchmarkSVMPipeline runs the live-kernel-to-simulator pipeline.
func BenchmarkSVMPipeline(b *testing.B) {
	benchExperiment(b, "svm-pipeline", ExperimentOptions{Scale: 0.05, Seed: 7})
}
