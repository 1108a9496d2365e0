package analyze

import (
	"bytes"
	"sync"
	"testing"

	"utlb/internal/obs"
	"utlb/internal/units"
)

// chunkEvents is obs.Buffer's chunk size; the test checks it against
// the chunk count a buffer actually hands over.
const chunkEvents = 2048

// exports renders everything the repository derives from runs: the
// analysis report, the Chrome trace and the Prometheus metrics.
func exports(t *testing.T, runs []obs.Run) [3]string {
	t.Helper()
	var out [3]bytes.Buffer
	if err := WriteJSON(&out[0], Analyze(runs, 3)); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&out[1], runs); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&out[2], obs.Aggregate(runs)); err != nil {
		t.Fatal(err)
	}
	return [3]string{out[0].String(), out[1].String(), out[2].String()}
}

// TestChunkedRunMatchesOneChunk: a buffer's run, however many chunks it
// spans, analyses and exports to the bytes of the same events wrapped
// as one slice — with the slowest transfer's chain straddling the first
// chunk boundary wherever there is one — and is a snapshot: an event
// recorded after Run() is not part of it.
func TestChunkedRunMatchesOneChunk(t *testing.T) {
	kinds := [...]obs.Kind{obs.KindCheckMiss, obs.KindCacheMiss, obs.KindMissCapacity, obs.KindDMARead, obs.KindCacheFill, obs.KindPin}
	// Six events per transfer, and 2048 is not a multiple of six: the
	// transfer holding event 2047 continues in the next chunk. Its DMA is
	// the longest, so it leads the slowest list.
	straddler := uint32((chunkEvents-1)/len(kinds) + 1)
	for _, n := range []int{0, 1, chunkEvents - 1, chunkEvents, chunkEvents + 1, 3*chunkEvents + 5} {
		buf := obs.NewBuffer("chunked/run")
		events := make([]obs.Event, n)
		for i := range events {
			ev := obs.Event{
				Time: units.Time(i) * 731, Xfer: uint32(i/len(kinds) + 1), Arg: uint32(i),
				PID: units.ProcID(1 + i%2), Kind: kinds[i%len(kinds)],
			}
			if ev.Kind.IsSpan() {
				ev.Dur = units.Time(400 + i%977)
				if ev.Xfer == straddler {
					ev.Dur += 1 << 20
				}
			}
			events[i] = ev
			buf.Record(ev)
		}
		run := buf.Run()
		buf.Record(obs.Event{Time: 1, Dur: 1 << 30, Xfer: 1, Kind: obs.KindPin})
		if got, want := len(run.Chunks()), (n+chunkEvents-1)/chunkEvents; got != want || run.Len() != n {
			t.Fatalf("%d events: run has %d chunks and %d events, want %d chunks", n, got, run.Len(), want)
		}
		if again := buf.Run(); again.Len() != n+1 {
			t.Fatalf("%d events: a run taken after one more Record holds %d", n, again.Len())
		}

		got := exports(t, []obs.Run{run})
		want := exports(t, []obs.Run{obs.NewRun("chunked/run", events)})
		for i, name := range []string{"analysis", "chrome trace", "metrics"} {
			if got[i] != want[i] {
				t.Errorf("%d events: %s of the chunked run differs from the one-chunk run's: %s", n, name, firstDiff(got[i], want[i]))
			}
		}
		if n <= chunkEvents {
			continue
		}
		slowest := Analyze([]obs.Run{run}, 3).Experiments[0].Slowest[0]
		inFirst := chunkEvents - int(straddler-1)*len(kinds)
		if slowest.ID != uint64(straddler) || len(slowest.Events) != min(len(kinds), n-int(straddler-1)*len(kinds)) || len(slowest.Events) <= inFirst {
			t.Errorf("%d events: slowest transfer %d with %d chain events, want transfer %d with more than the %d of the first chunk",
				n, slowest.ID, len(slowest.Events), straddler, inFirst)
		}
		for i, ce := range slowest.Events {
			if want := uint64(int(straddler-1)*len(kinds) + i); ce.Arg != want {
				t.Errorf("%d events: chain event %d is run event %d, want %d", n, i, ce.Arg, want)
			}
		}
	}
}

// TestPooledScratchConcurrent: Analyze and WriteChromeTrace draw their
// working storage from pools that serve's handlers reach from many
// goroutines; concurrent calls over different runs each get the bytes
// a call on its own gets.
func TestPooledScratchConcurrent(t *testing.T) {
	runs := oracleRuns(1998)
	want := make([][3]string, len(runs))
	for i := range runs {
		want[i] = exports(t, runs[i:i+1])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				i := (g + n) % len(runs)
				var out [2]bytes.Buffer
				if err := WriteJSON(&out[0], Analyze(runs[i:i+1], 3)); err != nil {
					t.Error(err)
				}
				if err := obs.WriteChromeTrace(&out[1], runs[i:i+1]); err != nil {
					t.Error(err)
				}
				if out[0].String() != want[i][0] || out[1].String() != want[i][1] {
					t.Errorf("goroutine %d: run %d exported differently under concurrency", g, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestOversizedScratchIsDropped: a run with more transfers than
// maxPooledXfers grows the scratch's table past the cap, and that
// scratch is not kept for the next call; a run within the cap's is.
func TestOversizedScratchIsDropped(t *testing.T) {
	drain := func() {
		for sc := scratchPool.Get(); cap(sc.xfers) != 0; sc = scratchPool.Get() {
		}
	}
	analyzeXfer := func(xfer uint32) {
		ev := obs.Event{Kind: obs.KindDMARead, Dur: 1, Xfer: xfer}
		Analyze([]obs.Run{obs.NewRun("x", []obs.Event{ev})}, 1)
	}
	drain()
	analyzeXfer(maxPooledXfers + 1)
	if sc := scratchPool.Get(); cap(sc.xfers) > maxPooledXfers {
		t.Errorf("a scratch with a %d-transfer table was pooled, cap %d", cap(sc.xfers), maxPooledXfers)
	}
	drain()
	analyzeXfer(1000)
	if sc := scratchPool.Get(); cap(sc.xfers) < 1000 {
		t.Errorf("a scratch within the cap was not pooled: table cap %d", cap(sc.xfers))
	}
}
