package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"utlb/internal/bus"
	"utlb/internal/core"
	"utlb/internal/event"
	"utlb/internal/experiments"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
	"utlb/internal/parallel"
	"utlb/internal/phys"
	"utlb/internal/serve"
	"utlb/internal/sim"
	"utlb/internal/telemetry"
	"utlb/internal/tlbcache"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/vm"
	"utlb/internal/workload"
	"utlb/internal/xlate"
)

// ledger collects the per-layer metrics. Every number comes from
// bench/'s own timers around public calls, on the same seed-derived
// inputs the workloads replay.
type ledger struct {
	slice   time.Duration // one timing round
	metrics map[string]metric
	order   []string
}

func (l *ledger) emit(name, unit string, v float64) {
	if _, dup := l.metrics[name]; dup {
		panic("bench: per-layer metric emitted twice: " + name)
	}
	l.metrics[name] = metric{Value: v, Unit: unit, Median: v, Min: v, Max: v, N: 1}
	l.order = append(l.order, name)
}

func (l *ledger) get(name string) float64 { return l.metrics[name].Value }

// ns times fn, which performs ops operations per call, and returns
// nanoseconds per operation: seven rounds of as many calls as fill a
// slice, the quiet quartile of the rounds (three rounds when one call
// outlasts several slices).
func (l *ledger) ns(ops int, fn func()) float64 {
	fn()
	t0 := time.Now()
	fn()
	once := time.Since(t0)
	calls, rounds := max(1, int(l.slice/max(once, 1))), 7
	if once > 4*l.slice {
		rounds = 3
	}
	samples := make([]float64, rounds)
	for r := range samples {
		t0 := time.Now()
		for c := 0; c < calls; c++ {
			fn()
		}
		samples[r] = float64(time.Since(t0).Nanoseconds()) / float64(calls*ops)
	}
	return quietQuartile(samples, true)
}

// allocs reports mallocs and bytes per call of fn over n calls.
func allocs(n int, fn func()) (mallocs, bytes float64) {
	fn()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// runTraced is the traced pass: every workload once at reduced count
// with spans on, then the layer probes, then the two attribution
// tables. It returns the per-layer metrics and, as a workload named
// "traced", the checks the traced passes made.
func runTraced(w io.Writer, opt options) (*result, error) {
	tr := newTracer()
	l := &ledger{slice: opt.sz.probeSlice, metrics: map[string]metric{}}
	red := opt.sz.reduced()
	checks := workloadResult{Name: "traced", Metrics: map[string]metric{}}
	insts := map[string]instance{}
	reps := map[string]repSample{}
	for i := range workloads {
		def := &workloads[i]
		inst, err := def.setup(opt.seed, red, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced set-up: %w", def.name, err)
		}
		defer inst.close()
		insts[def.name] = inst
		reps[def.name] = measureRep(inst, tr)
	}

	simPaper := insts["sim_paper"].(*simInst)
	simOverlap := insts["sim_overlap"].(*simInst)
	simRecorded := insts["sim_recorded"].(*simInst)
	pool := zipfPool(opt.seed, 0, red.poolBatches, "")
	var httpP50 float64
	// The probes, with the machine-speed kernels sampled between them.
	var cal calibrator
	for _, probe := range []func() error{
		func() error { probeWorkload(l, opt); return nil },
		func() error { return probeSim(l, simPaper, simOverlap, simRecorded, reps) },
		func() error { return probeCore(l) },
		func() error { probeTLBCache(l, pool); return nil },
		func() error { return probeHostBus(l) },
		func() error { probeEvent(l); return nil },
		func() error { return probeObs(l, simRecorded) },
		func() error { return probeXlate(l, opt, pool, insts) },
		func() error { return probeServe(l, opt, red) },
		func() (err error) { httpP50, err = probeHTTP(l, opt, red, tr); return err },
		func() error { return probeExperiments(l, opt) },
	} {
		cal.sample()
		if err := probe(); err != nil {
			return nil, err
		}
	}
	cal.sample()
	l.emit("bench.machine_index", "x", cal.index())
	// The service tails, from the traced repetitions: too much the
	// hypervisor's to bound (see README), too important to drop.
	for _, name := range []string{"svc_http_lookup", "svc_inproc_lookup", "svc_inproc_mixed"} {
		l.emit("svc.req_p99_us."+strings.TrimPrefix(name, "svc_"), "us", reps[name].p99ns/1e3)
	}

	for _, inst := range insts {
		a, f := inst.totals()
		checks.Attempted += a
		checks.Failed += f
		if checks.Failure == "" {
			checks.Failure = inst.failure()
		}
	}
	share := float64(checks.Failed) / float64(max(checks.Attempted, 1))
	checks.Metrics[metricFailed] = summarize([]float64{share}, "ratio", share)

	fmt.Fprintf(w, "\n== layer ledger (seed %d) ==\n", opt.seed)
	for _, name := range l.order {
		m := l.metrics[name]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	stats := tr.stats()
	printSpanStats(w, stats, opt.spans)
	printHTTPAttribution(w, l, stats, httpP50)
	printRecordedStages(w, tr)
	if checks.Failure != "" {
		fmt.Fprintf(w, "  FAILED CHECK (traced pass): %s\n", checks.Failure)
	}
	if err := tr.write(opt.spans); err != nil {
		return nil, err
	}
	return &result{Env: newEnvironment(opt, 1), Workloads: []workloadResult{checks}, Layers: l.metrics}, nil
}

// --- workload, sim ---------------------------------------------------

func probeWorkload(l *ledger, opt options) {
	specs := workload.Specs()
	cfg := workload.Config{Node: 0, FirstPID: 1, Seed: opt.seed, Scale: opt.sz.paperScale}
	records := 0
	for _, s := range specs {
		records += len(s.Generate(cfg))
	}
	gen := func() {
		for _, s := range specs {
			s.Generate(cfg)
		}
	}
	l.emit("workload.gen_ns_per_record", "ns", l.ns(records, gen))
	mallocs, _ := allocs(1, gen)
	l.emit("workload.gen_allocs_per_trace", "count", mallocs/float64(len(specs)))
}

func probeSim(l *ledger, paper, overlap, recorded *simInst, reps map[string]repSample) error {
	scr := sim.NewRunScratch()
	var firstErr error
	run := func(tr trace.Trace, cfg sim.Config) sim.Result {
		res, err := sim.RunWith(tr, cfg, scr)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return res
	}
	// Host time per simulated lookup, one mechanism at a time, over the
	// seven sim_paper traces; and the model's counts over the same jobs.
	var total [2]sim.Result
	for m, suffix := range []string{"utlb", "intr"} {
		var jobs []*simJob
		for i := range paper.jobs {
			if j := &paper.jobs[i]; j.cfg.Mechanism == mechanisms[m] {
				jobs = append(jobs, j)
				total[m] = addResults(total[m], j.want)
			}
		}
		l.emit("sim.run_ns_per_lookup."+suffix, "ns", l.ns(int(total[m].Lookups), func() {
			for _, j := range jobs {
				run(j.tr, j.cfg)
			}
		}))
	}
	one := paper.jobs[0].tr[:1]
	l.emit("sim.setup_ns_per_run", "ns", l.ns(1, func() { run(one, paper.jobs[0].cfg) }))

	bulk := overlap.jobs[0]
	refs := int(bulk.want.NIRefs)
	seqNs := l.ns(refs, func() { run(bulk.tr, bulkConfig(false)) })
	ovlNs := l.ns(refs, func() { run(bulk.tr, bulkConfig(true)) })
	l.emit("sim.seq_ns_per_niref", "ns", seqNs)
	l.emit("sim.overlap_ns_per_niref", "ns", ovlNs)
	l.emit("sim.overlap_overhead_pct", "%", 100*(ovlNs-seqNs)/seqNs)

	var events, recLookups int64
	for i := range recorded.jobs {
		events += int64(recorded.jobs[i].wantEvents)
		recLookups += recorded.jobs[i].want.Lookups
	}
	plainNs := l.ns(1, func() {
		for i := range recorded.jobs {
			run(recorded.jobs[i].tr, recorded.jobs[i].cfg)
		}
	})
	recNs := l.ns(1, func() {
		for i := range recorded.jobs {
			cfg := recorded.jobs[i].cfg
			cfg.Recorder = obs.NewBuffer("probe")
			run(recorded.jobs[i].tr, cfg)
		}
	})
	l.emit("sim.record_overhead_x", "x", recNs/plainNs)
	l.emit("sim.events_per_lookup", "count", float64(events)/float64(recLookups))

	all := addResults(total[0], total[1])
	l.emit("sim.ni_miss_rate", "ratio", all.NIMissRate())
	l.emit("sim.check_miss_rate", "ratio", total[0].CheckMissRate())
	l.emit("sim.pins_per_lookup", "ratio", float64(all.Pins)/float64(all.Lookups))
	l.emit("sim.unpins_per_lookup", "ratio", all.UnpinRate())
	for _, name := range []string{"sim_paper", "sim_overlap", "sim_recorded"} {
		r := reps[name]
		l.emit("sim.sim_ns_per_lookup."+strings.TrimPrefix(name, "sim_"), "ns", float64(r.simNs)/float64(r.simLookups))
	}
	l.emit("sim.paper_err_pct", "%", paper.paperErrPct)

	// The modelled components, as shares of the simulated makespan.
	mk := float64(all.Makespan)
	l.emit("hostos.sim_share_pct", "%", 100*float64(all.HostTime)/mk)
	l.emit("hostos.pin_sim_share_pct", "%", 100*float64(all.PinTime)/mk)
	l.emit("nicsim.sim_share_pct", "%", 100*float64(all.NICTime)/mk)
	l.emit("bus.dma_sim_share_pct", "%", 100*float64(bulk.want.DMATime)/float64(bulk.want.Makespan))
	return firstErr
}

// addResults sums the counters and times of two runs.
func addResults(a, b sim.Result) sim.Result {
	a.Lookups += b.Lookups
	a.CheckMisses += b.CheckMisses
	a.NIMisses += b.NIMisses
	a.NIRefs += b.NIRefs
	a.Pins += b.Pins
	a.Unpins += b.Unpins
	a.HostTime += b.HostTime
	a.NICTime += b.NICTime
	a.PinTime += b.PinTime
	a.Makespan += b.Makespan
	return a
}

// --- core, tlbcache, hostos, bus -------------------------------------

// rig is one simulated node, wired the way sim.RunWith wires it.
type rig struct {
	host *hostos.Host
	bus  *bus.Bus
	nic  *nicsim.NIC
	drv  *core.Driver
	proc *hostos.Process
	lib  *core.Lib
}

func newRig() (*rig, error) {
	r := &rig{host: hostos.New(0, 64*units.MB, hostos.DefaultCosts())}
	clk := units.NewClock()
	r.bus = bus.New(r.host.Memory(), clk, bus.DefaultCosts())
	r.nic = nicsim.New(0, units.MB, clk, r.bus, nicsim.DefaultCosts())
	var err error
	if r.drv, err = core.NewDriver(r.host, r.nic, tlbcache.Config{Entries: 1024, Ways: 1, IndexOffset: true}); err != nil {
		return nil, err
	}
	if r.proc, err = r.host.Spawn(1, "probe", vm.NewSpace(1, r.host.Memory(), 0)); err != nil {
		return nil, err
	}
	r.lib, err = core.NewLib(r.drv, r.proc, core.LibConfig{Policy: core.LRU, Prepin: 1})
	return r, err
}

func probeCore(l *ledger) error {
	r, err := newRig()
	if err != nil {
		return err
	}
	const pages = 8
	if err := r.lib.Lookup(0, pages*units.PageSize); err != nil {
		return err
	}
	tr := core.NewTranslator(r.drv, 1)
	vpns := make([]units.VPN, pages)
	pfns := make([]units.PFN, pages)
	infos := make([]core.TranslateInfo, pages)
	for i := range vpns {
		vpns[i] = units.VPN(i)
	}
	tr.TranslateBatch(1, vpns, pfns, infos) // fill the cache
	l.emit("core.translate_hit_ns", "ns", l.ns(pages, func() {
		for _, v := range vpns {
			tr.Translate(1, v)
		}
	}))
	l.emit("core.lib_lookup_hit_ns", "ns", l.ns(pages, func() {
		for _, v := range vpns {
			err = r.lib.Lookup(v.Addr(), units.PageSize)
		}
	}))
	l.emit("core.translate_batch8_ns_per_page", "ns", l.ns(pages, func() { tr.TranslateBatch(1, vpns, pfns, infos) }))
	return err
}

func probeTLBCache(l *ledger, pool []batch) {
	cfg := xlate.DefaultConfig()
	c := tlbcache.New(tlbcache.Config{Entries: cfg.Entries, Ways: cfg.Ways, IndexOffset: cfg.IndexOffset})
	for p := 0; p < zipfPages; p++ {
		c.Insert(zipfKey(p), xlate.SyntheticPFN(zipfKey(p)))
	}
	next := 0
	l.emit("tlbcache.lookup_hit_ns", "ns", l.ns(batchKeys, func() {
		for _, k := range pool[next].keys {
			c.Lookup(k)
		}
		next = (next + 1) % len(pool)
	}))
	l.emit("tlbcache.lookup_miss_ns", "ns", l.ns(batchKeys, func() {
		for _, k := range pool[next].keys {
			c.Lookup(tlbcache.Key{PID: k.PID + 100, VPN: k.VPN})
		}
		next = (next + 1) % len(pool)
	}))
	// A full cache and an endless run of new keys: every insert evicts.
	for v := 0; v < 2*cfg.Entries; v++ {
		c.Insert(tlbcache.Key{PID: 7, VPN: units.VPN(v)}, units.PFN(v))
	}
	vpn := units.VPN(1 << 20)
	l.emit("tlbcache.insert_evict_ns", "ns", l.ns(batchKeys, func() {
		for i := 0; i < batchKeys; i++ {
			c.Insert(tlbcache.Key{PID: 7, VPN: vpn}, units.PFN(vpn))
			vpn++
		}
	}))
}

func probeHostBus(l *ledger) error {
	r, err := newRig()
	if err != nil {
		return err
	}
	const pages = 8
	vpns := make([]units.VPN, pages)
	for i := range vpns {
		vpns[i] = units.VPN(64 + i)
	}
	l.emit("hostos.pin_unpin_ns_per_page", "ns", l.ns(pages, func() {
		if _, e := r.host.PinPages(r.proc, vpns); e != nil {
			err = e
		}
		if e := r.host.UnpinPages(r.proc, vpns); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	mem := phys.NewMemory(64 * units.PageSize)
	frame, err := mem.Alloc()
	if err != nil {
		return err
	}
	seq := bus.New(mem, units.NewClock(), bus.DefaultCosts())
	l.emit("bus.readwords8_ns.seq", "ns", l.ns(1, func() { seq.ReadWords(frame.Addr(), 8) }))
	k := event.NewKernel()
	ovl := bus.New(mem, units.NewClock(), bus.DefaultCosts())
	ovl.SetOverlap(k, event.NewPool(2))
	l.emit("bus.readwords8_ns.overlap", "ns", l.ns(1, func() {
		ovl.ReadWords(frame.Addr(), 8)
		k.Run() // the completion event is part of an overlapped transfer
	}))
	return nil
}

// --- event, obs, analyze ---------------------------------------------

func probeEvent(l *ledger) {
	const n = 1024
	nop := func(units.Time) {}
	k := event.NewKernel()
	l.emit("event.dispatch_ns_per_event", "ns", l.ns(n, func() {
		base := k.Now()
		for i := 0; i < n; i++ {
			k.At(base+units.Time(i%64), nop)
		}
		k.Run()
	}))
	pool := event.NewPool(2)
	var ready units.Time
	l.emit("event.pool_reserve_ns", "ns", l.ns(n, func() {
		for i := 0; i < n; i++ {
			pool.Reserve(ready, 100)
			ready += 60
		}
	}))
	ks := event.NewKernel()
	seq := event.NewSequencer(ks, obs.Nop{})
	l.emit("event.sequencer_ns_per_event", "ns", l.ns(n, func() {
		base := ks.Now()
		for i := 0; i < n; i++ {
			seq.Record(obs.Event{Time: base + units.Time(i%64), Kind: obs.KindCacheHit})
		}
		seq.Drain()
	}))
}

func probeObs(l *ledger, recorded *simInst) error {
	j := recorded.jobs[0]
	buf := obs.NewBuffer(j.label)
	cfg := j.cfg
	cfg.Recorder = buf
	if _, err := sim.RunWith(j.tr, cfg, recorded.scr); err != nil {
		return err
	}
	events := buf.Events()
	runs := []obs.Run{buf.Run()}
	l.emit("obs.record_ns_per_event", "ns", l.ns(len(events), func() {
		b := obs.NewBuffer("probe")
		for _, ev := range events {
			b.Record(ev)
		}
	}))
	var err error
	l.emit("obs.export_ns_per_event", "ns", l.ns(len(events), func() {
		if e := obs.WriteChromeTrace(io.Discard, runs); e != nil {
			err = e
		}
		if e := obs.WritePrometheus(io.Discard, obs.Aggregate(runs)); e != nil {
			err = e
		}
	}))
	l.emit("analyze.ns_per_event", "ns", l.ns(len(events), func() {
		if e := analyze.WriteJSON(io.Discard, analyze.Analyze(runs, 0)); e != nil {
			err = e
		}
	}))
	return err
}

// --- xlate, telemetry ------------------------------------------------

// lookupManyNs is nanoseconds per key of LookupMany(64) with g
// goroutines on xl: wall time over all keys looked up, so perfect
// scaling halves it at g = 2.
func lookupManyNs(l *ledger, xl *xlate.Service, pools [][]batch, g int) float64 {
	const perCall = 512
	outs := make([][]xlate.Result, g)
	return l.ns(g*perCall*batchKeys, func() {
		runClients(g, func(c int) {
			for i := 0; i < perCall; i++ {
				outs[c] = xl.LookupMany(pools[c][i%len(pools[c])].keys, outs[c])
			}
		})
	})
}

func probeXlate(l *ledger, opt options, pool []batch, insts map[string]instance) error {
	bare, err := xlate.New(xlate.DefaultConfig()) // nil sink
	if err != nil {
		return err
	}
	prime(bare, xlate.SyntheticPFN)
	pools := [][]batch{pool, zipfPool(opt.seed, 1, len(pool), "")}
	next := 0
	l.emit("xlate.lookup_ns", "ns", l.ns(batchKeys, func() {
		for _, k := range pool[next].keys {
			bare.Lookup(k)
		}
		next = (next + 1) % len(pool)
	}))
	g1 := lookupManyNs(l, bare, pools, 1)
	g2 := lookupManyNs(l, bare, pools, 2)
	l.emit("xlate.lookupmany64_ns_per_key.g1", "ns", g1)
	l.emit("xlate.lookupmany64_ns_per_key.g2", "ns", g2)
	l.emit("xlate.scale_g2_x", "x", g1/g2)
	l.emit("xlate.group_overhead_ns_per_key", "ns", g1-l.get("tlbcache.lookup_hit_ns"))

	// Telemetry: the same batches through a service with the default
	// sink, and the sink's hot-path call on its own.
	withSink, err := newService()
	if err != nil {
		return err
	}
	prime(withSink, xlate.SyntheticPFN)
	sinkNs := lookupManyNs(l, withSink, pools, 1)
	l.emit("telemetry.overhead_ns_per_batch", "ns", (sinkNs-g1)*batchKeys)
	sink, err := telemetry.New(telemetry.DefaultConfig(xlate.DefaultConfig().Shards), telemetry.WallClock{})
	if err != nil {
		return err
	}
	l.emit("telemetry.record_lookups_ns", "ns", l.ns(8, func() {
		now := sink.Now()
		for si := 0; si < 8; si++ {
			sink.RecordLookups(si, 8, 8, 250, now)
		}
	}))
	lookupSvc := insts["svc_inproc_lookup"].(*inprocInst)
	l.emit("telemetry.sampled_traces", "count", float64(lookupSvc.xl.Telemetry().SampledTraces()))

	// Writes: steady-state fills of a full table, unpins, process exit.
	mixed := insts["svc_inproc_mixed"].(*mixedInst)
	mc := &mixedClient{pid: 3, rng: uint64(opt.seed), keys: make([]xlate.Key, batchKeys)}
	pfns := make([]units.PFN, batchKeys)
	fill := func() {
		for i := range mc.keys {
			mc.keys[i] = xlate.Key{PID: mc.pid, VPN: units.VPN(mc.draw() % mixedPages)}
			pfns[i] = xlate.SyntheticPFN(mc.keys[i])
		}
		bare.InsertMany(mc.keys, pfns)
	}
	for i := 0; i < 2*mixedPages/batchKeys; i++ {
		fill()
	}
	l.emit("xlate.insertmany64_ns_per_key", "ns", l.ns(batchKeys, fill))
	// Invalidate is timed on present keys only: each round re-inserts
	// its keys untimed, then drops them.
	victims := make([]xlate.Key, 4096)
	vp := make([]units.PFN, len(victims))
	for i := range victims {
		victims[i] = xlate.Key{PID: 5, VPN: units.VPN(i)}
	}
	samples := make([]float64, 7)
	for r := range samples {
		bare.InsertMany(victims, vp)
		t0 := time.Now()
		for _, k := range victims {
			bare.Invalidate(k)
		}
		samples[r] = float64(time.Since(t0).Nanoseconds()) / float64(len(victims))
	}
	l.emit("xlate.invalidate_ns", "ns", quietQuartile(samples, true))
	l.emit("xlate.invalidate_process_us", "us", l.ns(1, func() { bare.InvalidateProcess(scratchPID) })/1e3)

	st := mixed.xl.Stats()
	l.emit("xlate.hit_ratio", "ratio", float64(st.Total.Hits)/float64(st.Total.Lookups))
	l.emit("xlate.evictions_per_insert", "ratio", float64(st.Total.Evictions)/float64(st.Total.Fills))
	var most int64
	for _, sh := range st.PerShard {
		most = max(most, sh.Lookups)
	}
	mean := float64(st.Total.Lookups) / float64(len(st.PerShard))
	l.emit("xlate.shard_imbalance_pct", "%", 100*(float64(most)-mean)/mean)
	return nil
}

// --- serve, http -----------------------------------------------------

// handlerProbe drives srv.Handler() with no socket.
type handlerProbe struct {
	h    http.Handler
	err  error
	next int
}

func (p *handlerProbe) serve(req *http.Request) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && p.err == nil {
		p.err = fmt.Errorf("%s %s: status %d: %.100s", req.Method, req.URL.Path, rec.Code, rec.Body.String())
	}
}

func postBody(keys []xlate.Key) []byte {
	var sb strings.Builder
	sb.WriteString(`{"keys":[`)
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"pid":%d,"vpn":%d}`, k.PID, k.VPN)
	}
	sb.WriteString("]}")
	return []byte(sb.String())
}

func probeServe(l *ledger, opt options, red sizes) error {
	srv := serve.New()
	prime(srv.Xlate(), xlate.SyntheticPFN)
	p := &handlerProbe{h: srv.Handler()}
	pool := zipfPool(opt.seed, 0, red.poolBatches, "http://bench")
	gets := make([]*http.Request, len(pool))
	bodies := make([][]byte, len(pool))
	for i := range pool {
		gets[i] = httptest.NewRequest(http.MethodGet, pool[i].url, nil)
		bodies[i] = postBody(pool[i].keys)
	}
	get := func() {
		p.serve(gets[p.next])
		p.next = (p.next + 1) % len(pool)
	}
	post := func(route string) func() {
		return func() {
			p.serve(httptest.NewRequest(http.MethodPost, "http://bench"+route, bytes.NewReader(bodies[p.next])))
			p.next = (p.next + 1) % len(pool)
		}
	}
	getUs := l.ns(1, get) / 1e3
	l.emit("serve.lookup_get64_us", "us", getUs)
	l.emit("serve.lookup_post64_us", "us", l.ns(1, post("/api/xlate/lookup"))/1e3)
	l.emit("serve.insert_post64_us", "us", l.ns(1, post("/api/xlate/insert"))/1e3)
	// What the handler adds around the service call it makes.
	var out []xlate.Result
	inner := l.ns(1, func() {
		out = srv.Xlate().LookupMany(pool[p.next].keys, out)
		p.next = (p.next + 1) % len(pool)
	}) / 1e3
	l.emit("serve.codec_self_us", "us", getUs-inner)
	mallocs, bytesPer := allocs(256, get)
	l.emit("serve.lookup_allocs_per_req", "count", mallocs)
	l.emit("serve.lookup_bytes_per_req", "B", bytesPer)
	return p.err
}

// probeHTTP measures what the socket adds: one client against the
// handler-only time, the payload sizes, and — with two clients, the
// svc_http_lookup shape — the cost of tracing itself. It returns the
// untraced two-client p50 the attribution table decomposes.
func probeHTTP(l *ledger, opt options, red sizes, tr *tracer) (p50us float64, err error) {
	plain, err := newHTTPLookup(opt.seed, red, nil, xlate.SyntheticPFN)
	if err != nil {
		return 0, err
	}
	defer plain.close()
	traced, err := newHTTPLookup(opt.seed, red, tr, xlate.SyntheticPFN)
	if err != nil {
		return 0, err
	}
	defer traced.close()
	p50 := func(in *httpInst, k int, tr *tracer) float64 {
		in.active = k
		s := measureRep(in, tr)
		in.active = clients
		return s.p50ns / 1e3
	}
	var k1, k2, k2traced []float64
	for r := 0; r < 3; r++ {
		k1 = append(k1, p50(plain, 1, nil))
		k2 = append(k2, p50(plain, clients, nil))
		k2traced = append(k2traced, p50(traced, clients, tr))
	}
	k1us := quietQuartile(k1, true)
	l.emit("http.k1_req_p50_us", "us", k1us)
	l.emit("http.loopback_self_us", "us", k1us-l.get("serve.lookup_get64_us"))
	c := plain.cl[0]
	l.emit("http.req_bytes", "B", float64(c.reqBytes)/float64(c.replies))
	l.emit("http.resp_bytes", "B", float64(c.respBytes)/float64(c.replies))
	p50us = quietQuartile(k2, true)
	l.emit("bench.trace_overhead_pct", "%", 100*(quietQuartile(k2traced, true)-p50us)/p50us)
	for _, in := range []*httpInst{plain, traced} {
		if _, failed := in.totals(); failed > 0 {
			return 0, fmt.Errorf("http probe: %s", in.failure())
		}
	}
	return p50us, nil
}

// --- experiments, parallel -------------------------------------------

func probeExperiments(l *ledger, opt options) error {
	runAll := func(width int) (float64, error) {
		workload.ResetTraceStore()
		parallel.SetWorkers(width)
		defer parallel.SetWorkers(0)
		t0 := time.Now()
		err := experiments.RunAll(experiments.Options{Scale: opt.sz.runAllScale, Seed: opt.seed}, io.Discard)
		return time.Since(t0).Seconds(), err
	}
	w1, err := runAll(1)
	if err != nil {
		return err
	}
	wN, err := runAll(0)
	if err != nil {
		return err
	}
	l.emit("experiments.runall_w1_s", "s", w1)
	l.emit("experiments.runall_wN_s", "s", wN)
	l.emit("parallel.speedup", "x", w1/wN)
	return nil
}

// --- attribution -----------------------------------------------------

// printHTTPAttribution is the table ROADMAP item 1(c) asks for: the
// measured svc_http_lookup median against the sum of what each layer,
// probed alone on the same batches, costs.
func printHTTPAttribution(w io.Writer, l *ledger, stats []spanStats, measuredUs float64) {
	rows := []struct {
		name string
		us   float64
	}{
		{"http.loopback_self_us", l.get("http.loopback_self_us")},
		{"serve.codec_self_us", l.get("serve.codec_self_us")},
		{"telemetry.overhead_ns_per_batch", l.get("telemetry.overhead_ns_per_batch") / 1e3},
		{"xlate.group_overhead_ns_per_key x64", l.get("xlate.group_overhead_ns_per_key") * batchKeys / 1e3},
		{"tlbcache.lookup_hit_ns x64", l.get("tlbcache.lookup_hit_ns") * batchKeys / 1e3},
	}
	fmt.Fprintf(w, "\n== of svc_http_lookup req_p50_us = %.2f us (2 clients, untraced) ==\n", measuredUs)
	var sum float64
	for _, r := range rows {
		sum += r.us
		fmt.Fprintf(w, "  %-38s %10.2f us %6.1f%%\n", r.name, r.us, 100*r.us/measuredUs)
	}
	fmt.Fprintf(w, "  %-38s %10.2f us %6.1f%%  (each layer probed alone, one client)\n", "sum of layers", sum, 100*sum/measuredUs)
	// The same request split by spans alone, under the two-client load.
	client, handler := statOf(stats, "http.client"), statOf(stats, "serve.handler")
	fmt.Fprintf(w, "  spans, traced pass: http.client p50 %.2f us = serve.handler p50 %.2f us + self p50 %.2f us\n",
		float64(client.p50)/1e3, float64(handler.p50)/1e3, float64(client.selfP50)/1e3)
}

// printRecordedStages is the same for sim_recorded, from spans alone:
// a request's stages are bench/'s own calls, so they nest exactly.
func printRecordedStages(w io.Writer, tr *tracer) {
	total := tr.total("sim_recorded.request", "")
	fmt.Fprintf(w, "\n== of sim_recorded request time = %.2f ms (traced pass, all requests) ==\n", float64(total)/1e6)
	var sum int64
	for _, name := range []string{"sim.run", "analyze.analyze", "obs.chrome", "obs.prometheus"} {
		t := tr.total(name, "sim_recorded.request")
		sum += t
		fmt.Fprintf(w, "  %-38s %10.2f ms %6.1f%%\n", name, float64(t)/1e6, 100*float64(t)/float64(total))
	}
	fmt.Fprintf(w, "  %-38s %10.2f ms %6.1f%%\n", "sum of stages", float64(sum)/1e6, 100*float64(sum)/float64(total))
}
