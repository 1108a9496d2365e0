package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
	"utlb/internal/sim"
	"utlb/internal/trace"
	"utlb/internal/workload"
)

// simJob is one request of a sim workload: a trace, a configuration,
// and what set-up's verified pass saw it produce.
type simJob struct {
	label string
	tr    trace.Trace
	cfg   sim.Config
	want  sim.Result
	// Recorded jobs also pin the event count and the analysis JSON.
	wantEvents int
	wantHash   uint64
}

// simInst runs its jobs round-robin, passes times per repetition, one
// sim.RunScratch throughout.
type simInst struct {
	checker
	name     string
	jobs     []simJob
	passes   int
	recorded bool
	scr      *sim.RunScratch
	lat      []int64
	// paperErrPct is set by sim_paper's set-up only.
	paperErrPct float64
	scored      bool
}

// checker counts attempted and failed requests and keeps the first
// failure for the report.
type checker struct {
	attempted, failedN int64
	firstFailure       string
}

func (c *checker) fail(format string, args ...any) {
	c.failedN++
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (c *checker) totals() (int64, int64) { return c.attempted, c.failedN }
func (c *checker) failure() string        { return c.firstFailure }

func paperConfig(mech sim.Mechanism, entries int, seed int64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mechanism = mech
	cfg.CacheEntries = entries
	cfg.Seed = seed
	return cfg
}

func generateApp(name string, seed int64, scale float64) (trace.Trace, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(workload.Config{Node: 0, FirstPID: 1, Seed: seed, Scale: scale}), nil
}

var mechanisms = []sim.Mechanism{sim.UTLB, sim.Interrupt}

// setupSimPaper generates the seven Table-3 traces, scores the model
// against the paper's Table 6, and runs every job once, verified.
func setupSimPaper(seed int64, sz sizes, tr *tracer) (instance, error) {
	in := &simInst{name: "sim_paper", passes: sz.paperPasses, scr: sim.NewRunScratch()}
	traces := map[string]trace.Trace{}
	for _, app := range workload.Names() {
		sp := tr.begin("workload.generate", noSpan, 0)
		t, err := generateApp(app, seed, sz.paperScale)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		traces[app] = t
		for _, mech := range mechanisms {
			in.jobs = append(in.jobs, simJob{
				label: app + "/" + mech.String(),
				tr:    t,
				cfg:   paperConfig(mech, 1024, seed),
			})
		}
	}
	errPct, err := paperError(traces, seed, sz.paperScale, in.scr)
	if err != nil {
		return nil, err
	}
	in.paperErrPct, in.scored = errPct, true
	if err := in.verifyFirstPass(); err != nil {
		return nil, err
	}
	// Table 4's invariant: the two mechanisms probe the same cache
	// geometry with the same reference stream, so they miss alike.
	for i := 0; i+1 < len(in.jobs); i += 2 {
		in.attempted++
		if u, ir := in.jobs[i].want, in.jobs[i+1].want; u.NIMisses != ir.NIMisses {
			in.fail("%s: %d NI misses, %s: %d", in.jobs[i].label, u.NIMisses, in.jobs[i+1].label, ir.NIMisses)
		}
	}
	return in, nil
}

// paperError is the mean absolute relative error of AvgLookupCost
// against the twelve Table-6 cells of paperTable6. The cache sizes
// shrink with the scale the way experiments.Table6 shrinks them, so a
// smoke run scores the same model.
func paperError(traces map[string]trace.Trace, seed int64, scale float64, scr *sim.RunScratch) (float64, error) {
	var sum float64
	for _, cell := range paperTable6 {
		entries := cell.entries
		if scale < 1 {
			entries = 16
			for float64(entries) < float64(cell.entries)*scale {
				entries *= 2
			}
		}
		res, err := sim.RunWith(traces[cell.app], paperConfig(cell.mech, entries, seed), scr)
		if err != nil {
			return 0, err
		}
		sum += math.Abs(res.AvgLookupCost().Micros()-cell.micros) / cell.micros
	}
	return 100 * sum / float64(len(paperTable6)), nil
}

func bulkConfig(overlap bool) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Prefetch = 8
	cfg.BatchPages = 8
	if overlap {
		cfg.Overlap = sim.OverlapConfig{Enabled: true, DMAChannels: 2}
	}
	return cfg
}

// setupSimOverlap generates the bulk-transfer trace and holds the
// overlap engine's run against a sequential run of the same trace:
// same counters, no longer makespan.
func setupSimOverlap(seed int64, sz sizes, tr *tracer) (instance, error) {
	in := &simInst{name: "sim_overlap", passes: sz.overlapRuns, scr: sim.NewRunScratch()}
	sp := tr.begin("workload.generate", noSpan, 0)
	bulk := workload.BulkTransfer(0, 1, seed, sz.bulkScale)
	tr.end(sp)
	in.jobs = []simJob{{label: "bulk/overlap", tr: bulk, cfg: bulkConfig(true)}}
	if err := in.verifyFirstPass(); err != nil {
		return nil, err
	}
	seq, err := sim.RunWith(bulk, bulkConfig(false), in.scr)
	if err != nil {
		return nil, err
	}
	in.attempted++
	if got := in.jobs[0].want; counters(got) != counters(seq) {
		in.fail("bulk: overlap counters %+v differ from sequential %+v", counters(got), counters(seq))
	} else if got.Makespan > seq.Makespan {
		in.fail("bulk: overlap makespan %v exceeds sequential %v", got.Makespan, seq.Makespan)
	}
	return in, nil
}

// counters is the mode-invariant part of a Result: what happened, not
// when.
func counters(r sim.Result) [9]int64 {
	return [9]int64{r.Lookups, r.CheckMisses, r.NIMisses, r.NIRefs, r.Pins, r.Unpins, r.Compulsory, r.Capacity, r.Conflict}
}

// setupSimRecorded builds the five recorded jobs — fft and barnes
// under both mechanisms, the bulk trace under overlap — and pins each
// one's Result to a nil-recorder run of the same job.
func setupSimRecorded(seed int64, sz sizes, tr *tracer) (instance, error) {
	in := &simInst{name: "sim_recorded", passes: sz.recPasses, recorded: true, scr: sim.NewRunScratch()}
	for _, app := range []string{"fft", "barnes"} {
		sp := tr.begin("workload.generate", noSpan, 0)
		t, err := generateApp(app, seed, sz.recScale)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for _, mech := range mechanisms {
			in.jobs = append(in.jobs, simJob{label: app + "/" + mech.String(), tr: t, cfg: paperConfig(mech, 1024, seed)})
		}
	}
	in.jobs = append(in.jobs, simJob{
		label: "bulk/overlap",
		tr:    workload.BulkTransfer(0, 1, seed, sz.recScale),
		cfg:   bulkConfig(true),
	})
	for i := range in.jobs {
		j := &in.jobs[i]
		plain, err := sim.RunWith(j.tr, j.cfg, in.scr)
		if err != nil {
			return nil, err
		}
		j.want = plain
	}
	if err := in.verifyFirstPass(); err != nil {
		return nil, err
	}
	return in, nil
}

// verifyFirstPass runs every job once. Plain jobs record their Result
// as the reference later repetitions must equal; recorded jobs already
// carry the nil-recorder Result and record event count and hash.
func (in *simInst) verifyFirstPass() error {
	for i := range in.jobs {
		j := &in.jobs[i]
		res, events, hash, err := in.request(j, nil)
		if err != nil {
			return fmt.Errorf("%s %s: %w", in.name, j.label, err)
		}
		if in.recorded {
			j.wantEvents, j.wantHash = events, hash
		} else {
			j.want = res
		}
		in.check(j, res, events, hash)
	}
	return nil
}

// request is one request: a run, and for a recorded job its analysis
// and both exports.
func (in *simInst) request(j *simJob, tr *tracer) (res sim.Result, events int, hash uint64, err error) {
	if !in.recorded {
		sp := tr.begin("sim.run", noSpan, 0)
		res, err = sim.RunWith(j.tr, j.cfg, in.scr)
		tr.end(sp)
		return res, 0, 0, err
	}
	req := tr.begin("sim_recorded.request", noSpan, 0)
	defer tr.end(req)
	cfg := j.cfg
	buf := obs.NewBuffer(j.label)
	cfg.Recorder = buf
	sp := tr.begin("sim.run", req, 0)
	res, err = sim.RunWith(j.tr, cfg, in.scr)
	tr.end(sp)
	if err != nil {
		return res, 0, 0, err
	}
	res.Config.Recorder = nil
	runs := []obs.Run{buf.Run()}
	sp = tr.begin("analyze.analyze", req, 0)
	report := analyze.Analyze(runs, 0)
	h := fnv.New64a()
	err = analyze.WriteJSON(h, report)
	tr.end(sp)
	if err != nil {
		return res, 0, 0, err
	}
	sp = tr.begin("obs.chrome", req, 0)
	err = obs.WriteChromeTrace(io.Discard, runs)
	tr.end(sp)
	if err != nil {
		return res, 0, 0, err
	}
	sp = tr.begin("obs.prometheus", req, 0)
	err = obs.WritePrometheus(io.Discard, obs.Aggregate(runs))
	tr.end(sp)
	return res, buf.Len(), h.Sum64(), err
}

// check holds one request's outputs against the job's reference.
func (in *simInst) check(j *simJob, res sim.Result, events int, hash uint64) {
	in.attempted++
	switch {
	case res != j.want:
		in.fail("%s %s: result %+v differs from reference %+v", in.name, j.label, res, j.want)
	case res.Compulsory+res.Capacity+res.Conflict != res.NIMisses:
		in.fail("%s %s: 3C classes sum to %d, NI misses %d", in.name, j.label, res.Compulsory+res.Capacity+res.Conflict, res.NIMisses)
	case in.recorded && (events != j.wantEvents || hash != j.wantHash):
		in.fail("%s %s: %d events hash %x, reference %d events hash %x", in.name, j.label, events, hash, j.wantEvents, j.wantHash)
	}
}

func (in *simInst) rep(tr *tracer) repCounts {
	in.lat = in.lat[:0]
	failedBefore := in.failedN
	var c repCounts
	for p := 0; p < in.passes; p++ {
		for i := range in.jobs {
			j := &in.jobs[i]
			t0 := time.Now()
			res, events, hash, err := in.request(j, tr)
			in.lat = append(in.lat, time.Since(t0).Nanoseconds())
			if err != nil {
				in.attempted++
				in.fail("%s %s: %v", in.name, j.label, err)
				continue
			}
			in.check(j, res, events, hash)
			c.lookups += res.Lookups
			c.simNs += int64(res.Makespan)
			c.simLookups += res.Lookups
		}
	}
	c.requests = int64(in.passes * len(in.jobs))
	c.failed = in.failedN - failedBefore
	return c
}

func (in *simInst) latencies() []int64        { return in.lat }
func (in *simInst) paperErr() (float64, bool) { return in.paperErrPct, in.scored }
func (in *simInst) close()                    {}
