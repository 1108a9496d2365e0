// Package workload synthesises the communication traces the paper's
// evaluation is driven by. The originals were captured from seven
// SPLASH-2 applications running over a home-based release-consistency
// SVM protocol on a four-node cluster of 4-way SMPs, with four
// application processes and one protocol process per node (§6). Those
// traces no longer exist outside Princeton, so each generator here
// reproduces the *pattern class* of its application — the property
// that drives UTLB behaviour — while calibrating the per-node
// communication footprint and lookup count to Table 3.
//
// Pattern classes (§6.5): FFT and LU are "regular" (strided and
// blocked sequential access), the rest "irregular" (task queues,
// particle partitions, key scatters). SVM traffic moves one 4 KB page
// per operation, which is why the paper equates operations with
// translation lookups.
package workload

import (
	"fmt"
	"math/rand"

	"utlb/internal/trace"
	"utlb/internal/units"
)

// ProcsPerNode is the paper's process count per SMP node: four
// application processes plus one SVM protocol process.
const ProcsPerNode = 5

// regionBase is the first page of the shared-array region in every
// process. SPMD processes share a VA layout, which is exactly what
// makes the un-offset ("direct-nohash") shared cache collide across
// processes.
const regionBase = units.VPN(0x40000) // VA 0x4000_0000

// protocolBase is the protocol process' metadata region.
const protocolBase = units.VPN(0x80000)

// Spec describes one application workload.
type Spec struct {
	// Name is the SPLASH-2 program name (lower case, as in the paper).
	Name string
	// ProblemSize is the paper's Table 3 problem description.
	ProblemSize string
	// FootprintPages is the per-node communication footprint target.
	FootprintPages int
	// Lookups is the per-node translation-lookup target.
	Lookups int
	// Regular marks the paper's regular/irregular classification.
	Regular bool

	// pattern generates one application process' page-access sequence:
	// indices into a region of footprint pages, of the given length.
	pattern func(rng *rand.Rand, footprint, length int) []int
}

// Config parameterises trace generation.
type Config struct {
	// Node is the node ID stamped on the records.
	Node units.NodeID
	// FirstPID numbers the node's processes FirstPID..FirstPID+4.
	FirstPID units.ProcID
	// Seed drives all randomised choices.
	Seed int64
	// Scale shrinks footprint and lookups for fast tests (1.0 = the
	// paper's size; 0 is treated as 1.0).
	Scale float64
}

// Specs returns the seven applications in the paper's Table 3 order.
func Specs() []*Spec {
	return []*Spec{
		{
			Name: "fft", ProblemSize: "4M elements", Regular: true,
			FootprintPages: 10803, Lookups: 43132,
			pattern: fftPattern,
		},
		{
			Name: "lu", ProblemSize: "4Kx4K matrix", Regular: true,
			FootprintPages: 12507, Lookups: 25198,
			pattern: luPattern,
		},
		{
			Name: "barnes", ProblemSize: "32K particles",
			FootprintPages: 2235, Lookups: 35904,
			pattern: barnesPattern,
		},
		{
			Name: "radix", ProblemSize: "4M keys",
			FootprintPages: 6393, Lookups: 11775,
			pattern: radixPattern,
		},
		{
			Name: "raytrace", ProblemSize: "256x256 car",
			FootprintPages: 6319, Lookups: 14594,
			pattern: raytracePattern,
		},
		{
			Name: "volrend", ProblemSize: "256^3 CST head",
			FootprintPages: 2371, Lookups: 9438,
			pattern: volrendPattern,
		},
		{
			Name: "water-spatial", ProblemSize: "15,625 molecules",
			FootprintPages: 1890, Lookups: 8488,
			pattern: waterPattern,
		},
	}
}

// ByName returns the spec for name.
func ByName(name string) (*Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown application %q", name)
}

// Names lists the application names in table order.
func Names() []string {
	specs := Specs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// budget is the per-node record budget: how Generate splits footprint
// and lookups between the four application processes and the SVM
// protocol process. The protocol process serves the SVM protocol's
// page and diff traffic — a small hot footprint with many operations.
// The four app processes share the rest evenly.
type budget struct {
	appFootprint, appLookups     int
	protoFootprint, protoLookups int
}

// budget splits s's footprint and lookups at scale. A scale so small
// that a process is left without a page or without a lookup is an
// error, reported here once: there is no trace of that shape, and the
// generator below divides by these counts.
func (s *Spec) budget(scale float64) (budget, error) {
	if scale <= 0 {
		scale = 1.0
	}
	footprint := scaleInt(s.FootprintPages, scale)
	lookups := scaleInt(s.Lookups, scale)
	protoLookups := lookups / 8
	protoFootprint := footprint / 40
	if protoFootprint < 4 {
		protoFootprint = 4
	}
	b := budget{
		appFootprint:   (footprint - protoFootprint) / 4,
		appLookups:     (lookups - protoLookups) / 4,
		protoFootprint: protoFootprint,
		protoLookups:   protoLookups,
	}
	if b.appFootprint < 1 || b.appLookups < 1 || b.protoLookups < 1 {
		return b, fmt.Errorf("workload: scale %g is too small for %s: %d pages and %d lookups leave a process with none",
			scale, s.Name, footprint, lookups)
	}
	return b, nil
}

// CheckScale reports whether s can be generated at scale. Generate and
// its variants panic on a scale this rejects; whoever takes the scale
// from outside the program (a flag, a query parameter) checks it here
// first.
func (s *Spec) CheckScale(scale float64) error {
	_, err := s.budget(scale)
	return err
}

// CheckScale checks scale against every application in apps, or
// against all seven when apps is empty.
func CheckScale(scale float64, apps []string) error {
	if len(apps) == 0 {
		apps = Names()
	}
	for _, app := range apps {
		spec, err := ByName(app)
		if err != nil {
			return err
		}
		if err := spec.CheckScale(scale); err != nil {
			return err
		}
	}
	return nil
}

// mustBudget is budget for the generators, whose callers have checked
// the scale.
func (s *Spec) mustBudget(scale float64) budget {
	b, err := s.budget(scale)
	if err != nil {
		panic(err)
	}
	return b
}

// records is the exact per-node record count the budget produces:
// exactify guarantees each process sequence is exactly its lookup
// target long.
func (b budget) records() int {
	return 4*b.appLookups + b.protoLookups
}

// Generate produces one node's trace: four application processes
// running s's pattern over a shared VA layout, plus the SVM protocol
// process, interleaved by a globally-synchronised clock. The records
// live in one allocation sized exactly to the trace.
func (s *Spec) Generate(cfg Config) trace.Trace {
	b := s.mustBudget(cfg.Scale)
	out := make(trace.Trace, b.records())
	s.generateInto(cfg, b, out)
	return out
}

// generateInto fills dst (len = b.records()) with the node's records,
// serialised by timestamp. Filling per-process segments of one block
// and stable-sorting the whole is record-for-record identical to
// merging separately allocated per-process traces: trace.Merge is
// defined as concatenation in argument order followed by SortByTime.
func (s *Spec) generateInto(cfg Config, b budget, dst trace.Trace) {
	rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(cfg.Node)))
	off := 0
	for p := 0; p < 4; p++ {
		pid := cfg.FirstPID + units.ProcID(p)
		seq := s.pattern(rand.New(rand.NewSource(rng.Int63())), b.appFootprint, b.appLookups)
		seq = exactify(seq, b.appFootprint, b.appLookups)
		sequenceToTrace(dst[off:off+len(seq)], cfg.Node, pid, regionBase, seq, p, rng.Int63())
		off += len(seq)
	}
	protoSeq := protocolPattern(rand.New(rand.NewSource(rng.Int63())), b.protoFootprint, b.protoLookups)
	protoSeq = exactify(protoSeq, b.protoFootprint, b.protoLookups)
	sequenceToTrace(dst[off:off+len(protoSeq)], cfg.Node, cfg.FirstPID+4, protocolBase, protoSeq, 4, rng.Int63())
	off += len(protoSeq)
	if off != len(dst) {
		panic(fmt.Sprintf("workload: generated %d records into a block of %d", off, len(dst)))
	}
	dst.SortByTime()
}

func scaleInt(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// exactify forces the sequence to the exact length and distinct-page
// count the calibration demands: sequences longer than length are
// trimmed, shorter ones padded by replay, and unused budget pages are
// spliced over the tail so the footprint lands exactly on target.
func exactify(seq []int, footprint, length int) []int {
	if len(seq) > length {
		seq = seq[:length]
	}
	if len(seq) == 0 {
		seq = []int{0}
	}
	orig := len(seq)
	for len(seq) < length {
		seq = append(seq, seq[len(seq)%orig]) // replay from the start
	}
	seen := make(map[int]bool, footprint)
	for _, p := range seq {
		seen[p] = true
	}
	if len(seen) > footprint {
		// Fold excess pages back into range: remap extras onto page 0.
		for i, p := range seq {
			if p >= footprint {
				seq[i] = p % footprint
			}
		}
		seen = make(map[int]bool, footprint)
		for _, p := range seq {
			seen[p] = true
		}
	}
	if missing := footprint - len(seen); missing > 0 {
		var unused []int
		for p := 0; p < footprint && len(unused) < missing; p++ {
			if !seen[p] {
				unused = append(unused, p)
			}
		}
		// Overwrite repeat accesses from the tail with the unused
		// pages so every budget page is touched at least once without
		// losing any page's only access.
		count := make(map[int]int, len(seen))
		for _, p := range seq {
			count[p]++
		}
		i := len(seq) - 1
		for _, p := range unused {
			for i >= 0 && count[seq[i]] <= 1 {
				i--
			}
			if i < 0 {
				break
			}
			count[seq[i]]--
			seq[i] = p
			i--
		}
	}
	return seq
}

// sequenceToTrace stamps the page sequence into out (len(out) ==
// len(seq), typically a segment of the trace's one block). Each process
// issues one operation every ~7 µs with seeded jitter, offset by its
// index, so merging interleaves the processes the way the paper's
// globally-synchronised timestamps do.
func sequenceToTrace(out trace.Trace, node units.NodeID, pid units.ProcID, base units.VPN, seq []int, slot int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	t := units.Time(slot) * 1500
	for i, page := range seq {
		t += units.FromMicros(5 + 4*rng.Float64())
		op := trace.Send
		if rng.Float64() < 0.25 {
			op = trace.Fetch
		}
		out[i] = trace.Record{
			Time:  t,
			Node:  node,
			PID:   pid,
			Op:    op,
			VA:    (base + units.VPN(page)).Addr(),
			Bytes: units.PageSize,
		}
	}
}

// GenerateCluster produces traces for nodes nodes and returns them
// merged; PIDs are globally unique. All nodes' records share one
// allocation: each node generates into its segment and one stable sort
// serialises the union, which is what trace.Merge of the per-node
// traces would produce.
func (s *Spec) GenerateCluster(nodes int, seed int64, scale float64) trace.Trace {
	b := s.mustBudget(scale)
	perNode := b.records()
	all := make(trace.Trace, nodes*perNode)
	for n := 0; n < nodes; n++ {
		s.generateInto(Config{
			Node:     units.NodeID(n),
			FirstPID: units.ProcID(1 + n*ProcsPerNode),
			Seed:     seed,
			Scale:    scale,
		}, b, all[n*perNode:(n+1)*perNode])
	}
	all.SortByTime()
	return all
}
