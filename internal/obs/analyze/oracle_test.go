package analyze

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"utlb/internal/obs"
	"utlb/internal/units"
)

// oracleAcc accumulates one (run, id) transfer during the scan.
type oracleAcc struct {
	id     uint64
	events int64
	chain  []ChainEvent
	// perCat is exclusive span time by category index.
	perCat [numCategories]int64
	// intrNested is KernelPin/KernelUnpin time inside this transfer,
	// subtracted from the interrupt category so dispatch+handler time
	// is exclusive of the pin work it wraps.
	intrNested int64
}

func (t *oracleAcc) latency() int64 {
	var sum int64
	for _, ns := range t.perCat {
		sum += ns
	}
	return sum
}

// analyzeKeepEverything is Analyze as it was before the two-pass
// rewrite — a heap accumulator and a materialised chain per transfer,
// every transfer sorted — kept as the reference the rewrite must
// reproduce field for field.
func analyzeKeepEverything(runs []obs.Run, topK int) *Report {
	if topK < 1 {
		topK = 10
	}
	rep := &Report{Runs: len(runs)}

	kindDigests := make([]*Digest, obs.NumKinds)
	type expAcc struct {
		runs      []string
		latency   Digest
		perCat    [numCategories]int64
		events    int64
		unattrib  int64
		transfers []*oracleAcc
		runOf     map[*oracleAcc]string
	}
	exps := make(map[string]*expAcc)

	for _, run := range runs {
		name := experiment(run.Label)
		ea := exps[name]
		if ea == nil {
			ea = &expAcc{runOf: make(map[*oracleAcc]string)}
			exps[name] = ea
		}
		ea.runs = append(ea.runs, run.Label)

		// Per-run transfer table: ids are dense from 1 in record order,
		// so a slice indexed by id-1 keeps the scan allocation-light and
		// the output order deterministic.
		var xfers []*oracleAcc
		events := flat(run)
		for i := range events {
			ev := &events[i]
			rep.Events++
			ea.events++
			if d := kindDigests[ev.Kind]; d != nil {
				d.Add(int64(ev.Dur))
			} else {
				d = new(Digest)
				d.Add(int64(ev.Dur))
				kindDigests[ev.Kind] = d
			}
			if ev.Xfer == 0 {
				ea.unattrib++
				continue
			}
			for len(xfers) < int(ev.Xfer) {
				xfers = append(xfers, nil)
			}
			t := xfers[ev.Xfer-1]
			if t == nil {
				t = &oracleAcc{id: uint64(ev.Xfer)}
				xfers[ev.Xfer-1] = t
			}
			t.events++
			if len(t.chain) < maxChainEvents {
				t.chain = append(t.chain, ChainEvent{
					Kind:   ev.Kind.String(),
					Node:   int(ev.Node),
					PID:    int(ev.PID),
					TimeNs: int64(ev.Time),
					DurNs:  int64(ev.Dur),
					Arg:    uint64(ev.Arg),
					Arg2:   uint64(ev.Arg2),
				})
			}
			if ev.Kind.IsSpan() {
				t.perCat[category(ev.Kind)] += int64(ev.Dur)
				if ev.Kind == obs.KindKernelPin || ev.Kind == obs.KindKernelUnpin {
					t.intrNested += int64(ev.Dur)
				}
			}
		}
		for _, t := range xfers {
			if t == nil {
				continue
			}
			// Make interrupt time exclusive of the kernel pin/unpin work
			// nested inside the handler (clamped: a chain recorded
			// without its enclosing interrupt must not go negative).
			ic := catInterrupt
			t.perCat[ic] -= t.intrNested
			if t.perCat[ic] < 0 {
				t.perCat[ic] = 0
			}
			ea.latency.Add(t.latency())
			for i, ns := range t.perCat {
				ea.perCat[i] += ns
			}
			ea.transfers = append(ea.transfers, t)
			ea.runOf[t] = run.Label
		}
	}

	for k := 0; k < obs.NumKinds; k++ {
		d := kindDigests[k]
		if d == nil {
			continue
		}
		rep.Kinds = append(rep.Kinds, KindStats{
			Kind:    obs.Kind(k).String(),
			Count:   d.N(),
			TotalNs: d.Sum(),
			P50Ns:   d.Quantile(50),
			P95Ns:   d.Quantile(95),
			P99Ns:   d.Quantile(99),
			MaxNs:   d.Max(),
		})
	}

	names := make([]string, 0, len(exps))
	for name := range exps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ea := exps[name]
		er := ExperimentReport{
			Experiment: name,
			Runs:       ea.runs,
			Transfers: TransferStats{
				Count:        ea.latency.N(),
				Events:       ea.events,
				Unattributed: ea.unattrib,
				P50Ns:        ea.latency.Quantile(50),
				P95Ns:        ea.latency.Quantile(95),
				P99Ns:        ea.latency.Quantile(99),
				MaxNs:        ea.latency.Max(),
			},
		}
		var total int64
		for _, ns := range ea.perCat {
			total += ns
		}
		for i, cat := range categories {
			ns := ea.perCat[i]
			if ns == 0 {
				continue
			}
			bp := int64(0)
			if total > 0 {
				bp = ns * 10000 / total
			}
			er.Breakdown = append(er.Breakdown, BreakdownEntry{Category: cat, Ns: ns, BasisPoints: bp})
		}
		sort.SliceStable(ea.transfers, func(i, j int) bool {
			a, b := ea.transfers[i], ea.transfers[j]
			la, lb := a.latency(), b.latency()
			if la != lb {
				return la > lb
			}
			ra, rb := ea.runOf[a], ea.runOf[b]
			if ra != rb {
				return ra < rb
			}
			return a.id < b.id
		})
		if len(ea.transfers) > topK {
			ea.transfers = ea.transfers[:topK]
		}
		for _, t := range ea.transfers {
			tr := Transfer{
				Run:       ea.runOf[t],
				ID:        t.id,
				LatencyNs: t.latency(),
				Events:    t.chain,
			}
			if int64(len(t.chain)) < t.events {
				tr.Truncated = int(t.events - int64(len(t.chain)))
			}
			er.Slowest = append(er.Slowest, tr)
		}
		rep.Experiments = append(rep.Experiments, er)
	}
	return rep
}

// oracleRuns builds runs that stress the slowest list: several runs
// per experiment (two of them sharing a label), a few transfers with
// chains well past maxChainEvents, interleaved chains, and latencies
// drawn from a handful of values so ties are the rule.
func oracleRuns(seed int64) []obs.Run {
	rng := rand.New(rand.NewSource(seed))
	kinds := []obs.Kind{
		obs.KindCheckMiss, obs.KindNIProbe, obs.KindDMARead, obs.KindPin, obs.KindUnpin,
		obs.KindInterrupt, obs.KindKernelPin, obs.KindKernelUnpin,
		obs.KindCacheHit, obs.KindCacheFill, obs.KindReclaim, obs.KindXlateReq,
	}
	labels := []string{"expA/r1", "expA/r0", "expB/only", "expA/r1", "solo"}
	runs := make([]obs.Run, len(labels))
	for i, label := range labels {
		var evs []obs.Event
		transfers := 1 + rng.Intn(120)
		for n := rng.Intn(3000); n > 0; n-- {
			ev := obs.Event{
				Time: units.Time(rng.Intn(1 << 20)),
				Xfer: uint32(rng.Intn(transfers + 1)), // 0: unattributed
				Arg:  uint32(rng.Intn(9)), PID: units.ProcID(rng.Intn(3)),
				Kind: kinds[rng.Intn(len(kinds))],
			}
			if rng.Intn(4) == 0 {
				ev.Xfer = uint32(1 + rng.Intn(3)) // long chains on the first ids
			}
			if ev.Kind.IsSpan() {
				ev.Dur = units.Time(100 * rng.Intn(4))
			}
			evs = append(evs, ev)
		}
		runs[i] = obs.NewRun(label, evs)
	}
	return runs
}

// TestAnalyzeMatchesKeepEverything: the two-pass top-K report equals
// the keep-everything one — same transfers, same order through every
// latency tie, same chains and truncation counts — at a topK below,
// around and above the transfer count.
func TestAnalyzeMatchesKeepEverything(t *testing.T) {
	long := false
	for seed := int64(0); seed < 30; seed++ {
		runs := oracleRuns(seed)
		for _, topK := range []int{0, 1, 3, 40, 100000} {
			got, want := Analyze(runs, topK), analyzeKeepEverything(runs, topK)
			if !reflect.DeepEqual(got, want) {
				var g, w bytes.Buffer
				WriteJSON(&g, got)
				WriteJSON(&w, want)
				t.Fatalf("seed %d topK %d: reports differ\n%s", seed, topK, firstDiff(g.String(), w.String()))
			}
			for _, er := range want.Experiments {
				for _, tr := range er.Slowest {
					long = long || tr.Truncated > 0
				}
			}
		}
	}
	if !long {
		t.Error("no reported transfer ran past maxChainEvents; the fixture no longer covers truncation")
	}
}

func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-200)
	return fmt.Sprintf("at byte %d\n got …%s\nwant …%s", i, got[lo:min(len(got), i+200)], want[lo:min(len(want), i+200)])
}

// TestAnalyzeInvalidKind: a Kind outside the taxonomy is counted as
// input and otherwise skipped — no digest, no transfer, no chain entry.
func TestAnalyzeInvalidKind(t *testing.T) {
	for _, k := range []obs.Kind{obs.Kind(obs.NumKinds), 200, 255} {
		valid := []obs.Event{
			{Time: 0, Dur: 100, Xfer: 1, Kind: obs.KindCheckMiss},
			{Time: 150, Dur: 200, Xfer: 1, Kind: obs.KindDMARead},
			{Time: 900, Kind: obs.KindCacheHit},
		}
		mixed := []obs.Event{
			{Time: 5, Dur: 7, Xfer: 9, Kind: k},
			valid[0], {Time: 120, Dur: 40, Xfer: 1, Kind: k}, valid[1],
			valid[2], {Time: 950, Kind: k},
		}
		got := Analyze([]obs.Run{obs.NewRun("x/r", mixed)}, 0)
		want := Analyze([]obs.Run{obs.NewRun("x/r", valid)}, 0)
		if got.Events != int64(len(mixed)) || got.Experiments[0].Transfers.Events != int64(len(mixed)) {
			t.Errorf("kind %d: counted %d events, want %d", k, got.Events, len(mixed))
		}
		got.Events, got.Experiments[0].Transfers.Events = want.Events, want.Experiments[0].Transfers.Events
		if !reflect.DeepEqual(got, want) {
			t.Errorf("kind %d: report differs from the one without the invalid events:\n got %+v\nwant %+v", k, got, want)
		}
	}
}

// flat gathers a run's events into one slice, the form the
// keep-everything oracle reads.
func flat(r obs.Run) []obs.Event {
	var evs []obs.Event
	for _, chunk := range r.Chunks() {
		evs = append(evs, chunk...)
	}
	return evs
}
