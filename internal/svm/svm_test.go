package svm

import (
	"fmt"
	"testing"

	"utlb/internal/trace"
	"utlb/internal/units"
)

func newSys(t *testing.T, peers, pages int) *System {
	t.Helper()
	s, err := New(Config{Peers: peers, RegionPages: pages})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigDefaults(t *testing.T) {
	s := newSys(t, 0, 0)
	if s.Peers() != 4 || s.RegionPages() != 64 {
		t.Errorf("defaults: peers=%d pages=%d", s.Peers(), s.RegionPages())
	}
}

func TestHomeDistribution(t *testing.T) {
	s := newSys(t, 3, 9)
	counts := make([]int, 3)
	for pg := 0; pg < 9; pg++ {
		counts[s.home(pg)]++
	}
	for i, c := range counts {
		if c != 3 {
			t.Errorf("peer %d homes %d pages, want 3", i, c)
		}
	}
}

func TestWriteReadThroughBarrier(t *testing.T) {
	s := newSys(t, 2, 8)
	w := s.Peer(0)
	r := s.Peer(1)

	// Peer 0 writes a page homed at peer 1.
	payload := []byte("hello shared memory")
	off := 1 * units.PageSize // page 1, home = peer 1
	if err := w.Write(off, payload); err != nil {
		t.Fatal(err)
	}
	// Before the barrier the writer sees its own data...
	got, err := w.Read(off, len(payload))
	if err != nil || !pagesEqual(got, payload) {
		t.Fatalf("writer read-own = %q, %v", got, err)
	}
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	// ...after the barrier every peer sees it.
	got, err = r.Read(off, len(payload))
	if err != nil || !pagesEqual(got, payload) {
		t.Fatalf("remote read = %q, %v", got, err)
	}
}

func TestWriteNoticesInvalidateStaleCopies(t *testing.T) {
	s := newSys(t, 2, 8)
	a, b := s.Peer(0), s.Peer(1)
	off := 0 // page 0, home = peer 0

	a.Write(off, []byte{1})
	s.Barrier()
	// b caches the page.
	if got, _ := b.Read(off, 1); got[0] != 1 {
		t.Fatalf("b sees %d", got)
	}
	// a writes again; after the barrier b's cache must be refreshed.
	a.Write(off, []byte{2})
	s.Barrier()
	got, _ := b.Read(off, 1)
	if got[0] != 2 {
		t.Fatalf("stale read: %d", got[0])
	}
	// b fetched twice (home is a, copies invalidated by notices).
	if b.Fetches() != 2 {
		t.Errorf("b fetches = %d, want 2", b.Fetches())
	}
}

func TestFalseSharingMergesAtHome(t *testing.T) {
	// Two peers write disjoint halves of the SAME page in one
	// interval; the home must merge both diffs.
	s := newSys(t, 3, 6)
	a, b := s.Peer(0), s.Peer(1)
	pg := 2 // home = peer 2, neither writer
	half := units.PageSize / 2
	aData := make([]byte, half)
	bData := make([]byte, half)
	for i := range aData {
		aData[i], bData[i] = 0xAA, 0xBB
	}
	if err := a.Write(pg*units.PageSize, aData); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(pg*units.PageSize+half, bData); err != nil {
		t.Fatal(err)
	}
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Peer(2).ReadPage(pg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < half; i++ {
		if got[i] != 0xAA || got[half+i] != 0xBB {
			t.Fatalf("merge failed at %d: %x %x", i, got[i], got[half+i])
		}
	}
}

func TestDiffRuns(t *testing.T) {
	twin := make([]byte, 64)
	cur := append([]byte(nil), twin...)
	if runs := diffRuns(twin, cur); runs != nil {
		t.Errorf("identical pages diffed: %v", runs)
	}
	cur[5] = 1
	cur[6] = 2
	cur[40] = 3
	runs := diffRuns(twin, cur)
	if len(runs) != 2 {
		t.Fatalf("runs = %+v", runs)
	}
	if runs[0].off != 5 || runs[0].len != 2 || runs[1].off != 40 || runs[1].len != 1 {
		t.Errorf("runs = %+v", runs)
	}
	// Small gaps merge into one run.
	cur2 := append([]byte(nil), twin...)
	cur2[10] = 1
	cur2[14] = 1 // gap of 3 < mergeGap
	runs = diffRuns(twin, cur2)
	if len(runs) != 1 || runs[0].off != 10 || runs[0].len != 5 {
		t.Errorf("merged runs = %+v", runs)
	}
	// Trailing modification.
	cur3 := append([]byte(nil), twin...)
	cur3[63] = 9
	runs = diffRuns(twin, cur3)
	if len(runs) != 1 || runs[0].off != 63 || runs[0].len != 1 {
		t.Errorf("tail runs = %+v", runs)
	}
}

func TestDiffBytesAreSmall(t *testing.T) {
	// Writing 16 bytes of a page must flush ~16 bytes, not 4096.
	s := newSys(t, 2, 4)
	a := s.Peer(0)
	if err := a.Write(1*units.PageSize+100, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	// All-zero write on zero page: no change, no diff.
	s.Barrier()
	if a.DiffBytes() != 0 {
		t.Errorf("zero-change flush sent %d bytes", a.DiffBytes())
	}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	a.Write(1*units.PageSize+100, payload)
	s.Barrier()
	if a.DiffBytes() == 0 || a.DiffBytes() > 64 {
		t.Errorf("diff sent %d bytes for a 16-byte change", a.DiffBytes())
	}
}

func TestJacobiMatchesSerial(t *testing.T) {
	const n, iters = 512, 6
	s := newSys(t, 4, 8)
	if err := RunJacobi(s, n, iters); err != nil {
		t.Fatal(err)
	}
	want := JacobiSerial(n, iters)
	got, err := JacobiResult(s, n, iters)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("jacobi[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTranspose(t *testing.T) {
	const n = 48
	s := newSys(t, 4, 2*48*48*wordBytes/units.PageSize+2)
	if err := RunTranspose(s, n); err != nil {
		t.Fatal(err)
	}
	if err := transposeCheck(s, n); err != nil {
		t.Fatal(err)
	}
}

func TestSumReduce(t *testing.T) {
	const n = 3000
	s := newSys(t, 4, 8)
	got, err := RunSumReduce(s, n)
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(n * (n + 1) / 2)
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestTraceCapture(t *testing.T) {
	s := newSys(t, 2, 8)
	if err := RunJacobi(s, 2048, 2); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	if len(tr) == 0 {
		t.Fatal("no trace captured")
	}
	var fetches, sends int
	for i, r := range tr {
		if i > 0 && tr[i-1].Time > r.Time {
			t.Fatal("trace not time-sorted")
		}
		switch r.Op {
		case trace.Fetch:
			fetches++
		case trace.Send:
			sends++
		}
		if r.Bytes <= 0 {
			t.Fatalf("record %d has %d bytes", i, r.Bytes)
		}
	}
	if fetches == 0 || sends == 0 {
		t.Errorf("trace lacks fetches (%d) or sends (%d)", fetches, sends)
	}
	// The captured trace drives the trace simulator (the paper's
	// pipeline: run SVM app -> capture -> simulate).
	if tr.Footprint() == 0 || len(tr.PIDs()) != 2 {
		t.Errorf("trace shape: footprint=%d pids=%v", tr.Footprint(), tr.PIDs())
	}
}

func TestUTLBActivityUnderSVM(t *testing.T) {
	// The SVM layer must exercise the UTLB: pins on both sides, no
	// host interrupts on the common path.
	s := newSys(t, 2, 8)
	if err := RunJacobi(s, 512, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Peers(); i++ {
		st := s.Peer(i).Proc().Lib().Stats()
		if st.Lookups == 0 || st.PagesPinned == 0 {
			t.Errorf("peer %d: no UTLB activity: %+v", i, st)
		}
		if n := s.Cluster().Node(units.NodeID(i)); n.Host().InterruptCount() != 0 {
			t.Errorf("peer %d took %d interrupts", i, n.Host().InterruptCount())
		}
	}
}

func TestRegionBounds(t *testing.T) {
	s := newSys(t, 2, 2)
	p := s.Peer(0)
	if err := p.Write(2*units.PageSize-1, []byte{1, 2}); err == nil {
		t.Error("out-of-region write accepted")
	}
	if _, err := p.Read(-1, 4); err == nil {
		t.Error("negative read accepted")
	}
	if err := p.Write(0, nil); err != nil {
		t.Errorf("empty write: %v", err)
	}
}

func TestTaskFarm(t *testing.T) {
	const tasks = 600
	s := newSys(t, 4, 8)
	if err := RunTaskFarm(s, tasks); err != nil {
		t.Fatal(err)
	}
	if err := checkTaskFarm(s, tasks); err != nil {
		t.Fatal(err)
	}
	// The queue cursor saw heavy lock traffic: every peer fetched the
	// queue page repeatedly.
	for i := 0; i < s.Peers(); i++ {
		if s.Peer(i).Fetches() == 0 && s.home(0) != i {
			t.Errorf("peer %d never fetched the queue page", i)
		}
	}
	// Region too small errors cleanly.
	small := newSys(t, 2, 1)
	if err := RunTaskFarm(small, 10000); err == nil {
		t.Error("oversized task farm accepted")
	}
}

// transposeCheck verifies the RunTranspose result.
func transposeCheck(s *System, n int) error {
	p := s.Peer(s.Peers() - 1) // read from a non-initialising peer
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v, err := p.LoadWord(n*n + r*n + c)
			if err != nil {
				return err
			}
			if v != uint32(c*n+r) {
				return fmt.Errorf("svm: transpose[%d,%d] = %d, want %d", r, c, v, c*n+r)
			}
		}
	}
	return nil
}

// checkTaskFarm verifies every task's output from an arbitrary peer.
func checkTaskFarm(s *System, tasks int) error {
	outBase := 1 + tasks
	p := s.Peer(s.Peers() - 1)
	// Recompute the final value of each slot: the last task writing a
	// slot (in task order) wins only if slots collide; with the
	// multiplicative scatter the mapping is usually injective, so
	// compute expectations generically.
	want := make(map[int]uint32)
	for task := 0; task < tasks; task++ {
		in := uint32(task*7 + 3)
		want[taskSlot(task, tasks)] = in*in + 1
	}
	for slot, w := range want {
		got, err := p.LoadWord(outBase + slot)
		if err != nil {
			return err
		}
		if got != w {
			return fmt.Errorf("svm: task slot %d = %d, want %d", slot, got, w)
		}
	}
	return nil
}
