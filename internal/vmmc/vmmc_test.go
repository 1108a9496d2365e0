package vmmc

import (
	"bytes"
	"testing"

	"utlb/internal/core"
	"utlb/internal/fault"
	"utlb/internal/units"
)

// pair builds a two-node cluster with one process on each node.
func pair(t *testing.T, opts Options) (*Cluster, *Proc, *Proc) {
	t.Helper()
	opts.Nodes = 2
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := c.Node(0).NewProcess(1, "sender", 0, core.LibConfig{Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := c.Node(1).NewProcess(2, "receiver", 0, core.LibConfig{Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	return c, sender, receiver
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestRemoteStoreEndToEnd(t *testing.T) {
	_, sender, receiver := pair(t, Options{})

	const n = 3*units.PageSize + 123 // multi-page, unaligned tail
	recvVA := units.VAddr(0x200000)
	buf, err := receiver.Export(recvVA, n)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := sender.Import(1, buf)
	if err != nil {
		t.Fatal(err)
	}

	sendVA := units.VAddr(0x100789) // deliberately unaligned
	data := pattern(n, 3)
	if err := sender.Write(sendVA, data); err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(imp, 0, sendVA, n); err != nil {
		t.Fatal(err)
	}

	got, err := receiver.Read(recvVA, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("remote store corrupted data")
	}
	rb, deposits, err := receiver.Received(buf)
	if err != nil || rb != int64(n) || deposits == 0 {
		t.Errorf("Received = %d bytes, %d deposits, %v", rb, deposits, err)
	}
}

func TestRemoteStoreAtOffset(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	buf, _ := receiver.Export(0x200000, 2*units.PageSize)
	imp, _ := sender.Import(1, buf)

	data := pattern(100, 9)
	sender.Write(0x100000, data)
	if err := sender.Send(imp, 5000, 0x100000, 100); err != nil {
		t.Fatal(err)
	}
	got, _ := receiver.Read(0x200000+5000, 100)
	if !bytes.Equal(got, data) {
		t.Error("offset store wrong")
	}
	// Bytes before the offset untouched (zero).
	pre, _ := receiver.Read(0x200000, 8)
	if !bytes.Equal(pre, make([]byte, 8)) {
		t.Error("store spilled before offset")
	}
}

func TestSendBoundsChecked(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	buf, _ := receiver.Export(0x200000, units.PageSize)
	imp, _ := sender.Import(1, buf)
	if err := sender.Send(imp, units.PageSize-10, 0x100000, 100); err == nil {
		t.Error("out-of-bounds send accepted")
	}
	if err := sender.Send(imp, -1, 0x100000, 10); err == nil {
		t.Error("negative offset accepted")
	}
	if err := sender.Send(nil, 0, 0, 1); err == nil {
		t.Error("nil handle accepted")
	}
	if err := sender.Send(imp, 0, 0x100000, 0); err != nil {
		t.Errorf("zero-byte send should be a no-op: %v", err)
	}
}

func TestSendZeroBytesRunsNothing(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	buf, _ := receiver.Export(0x200000, units.PageSize)
	imp, _ := sender.Import(1, buf)
	before := sender.Node().NIC().Clock().Now()
	if err := sender.Send(imp, 0, 0x100000, 0); err != nil {
		t.Fatalf("zero-byte send: %v", err)
	}
	if now := sender.Node().NIC().Clock().Now(); now != before || sender.Node().PagesSent() != 0 {
		t.Errorf("zero-byte send ran a command: clock %v -> %v, %d pages sent",
			before, now, sender.Node().PagesSent())
	}
}

func TestRemoteFetchEndToEnd(t *testing.T) {
	_, fetcher, owner := pair(t, Options{})

	const n = 2*units.PageSize + 77
	data := pattern(n, 5)
	if err := owner.Write(0x300000, data); err != nil {
		t.Fatal(err)
	}
	buf, err := owner.Export(0x300000, n)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := fetcher.Import(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := fetcher.Fetch(imp, 0, 0x500123, n); err != nil {
		t.Fatal(err)
	}
	got, _ := fetcher.Read(0x500123, n)
	if !bytes.Equal(got, data) {
		t.Fatal("remote fetch corrupted data")
	}
}

func TestFetchSubrange(t *testing.T) {
	_, fetcher, owner := pair(t, Options{})
	data := pattern(units.PageSize, 1)
	owner.Write(0x300000, data)
	buf, _ := owner.Export(0x300000, units.PageSize)
	imp, _ := fetcher.Import(1, buf)
	if err := fetcher.Fetch(imp, 100, 0x500000, 50); err != nil {
		t.Fatal(err)
	}
	got, _ := fetcher.Read(0x500000, 50)
	if !bytes.Equal(got, data[100:150]) {
		t.Error("subrange fetch wrong")
	}
}

func TestTransferRedirection(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	const n = units.PageSize
	buf, _ := receiver.Export(0x200000, n)
	imp, _ := sender.Import(1, buf)

	// Redirect incoming data to a different buffer.
	if err := receiver.Redirect(buf, 0x700000); err != nil {
		t.Fatal(err)
	}
	data := pattern(n, 8)
	sender.Write(0x100000, data)
	if err := sender.Send(imp, 0, 0x100000, n); err != nil {
		t.Fatal(err)
	}
	redirected, _ := receiver.Read(0x700000, n)
	if !bytes.Equal(redirected, data) {
		t.Error("redirected data missing")
	}
	original, _ := receiver.Read(0x200000, n)
	if bytes.Equal(original, data) {
		t.Error("data landed in the original buffer despite redirection")
	}
}

func TestRedirectOwnership(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	buf, _ := receiver.Export(0x200000, units.PageSize)
	if err := sender.Redirect(buf, 0x700000); err == nil {
		t.Error("non-owner redirect accepted")
	}
	if err := receiver.Redirect(99, 0x700000); err == nil {
		t.Error("redirect of unknown buffer accepted")
	}
}

func TestImportErrors(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	if _, err := sender.Import(9, 1); err == nil {
		t.Error("import from unknown node accepted")
	}
	if _, err := sender.Import(1, 42); err == nil {
		t.Error("import of unknown buffer accepted")
	}
	if _, err := receiver.Export(0, 0); err == nil {
		t.Error("zero-byte export accepted")
	}
}

func TestUnexport(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	buf, _ := receiver.Export(0x200000, units.PageSize)
	imp, _ := sender.Import(1, buf)
	if err := sender.Unexport(buf); err == nil {
		t.Error("non-owner unexport accepted")
	}
	if err := receiver.Unexport(buf); err != nil {
		t.Fatal(err)
	}
	// Deposits to a withdrawn buffer are protection-dropped.
	sender.Write(0x100000, pattern(64, 1))
	if err := sender.Send(imp, 0, 0x100000, 64); err != nil {
		t.Fatal(err) // link-level send succeeds; deposit is dropped
	}
	if _, _, err := receiver.Received(buf); err == nil {
		t.Error("Received on withdrawn buffer should fail")
	}
}

func TestLossyNetworkStillDeliversExactlyOnce(t *testing.T) {
	c, sender, receiver := pair(t, Options{
		Injector: fault.NewInjector(11, fault.Plan{fault.SiteFabricDrop: {Rate: 0.3}}),
	})
	const n = 4 * units.PageSize
	buf, _ := receiver.Export(0x200000, n)
	imp, _ := sender.Import(1, buf)
	data := pattern(n, 2)
	sender.Write(0x100000, data)
	if err := sender.Send(imp, 0, 0x100000, n); err != nil {
		t.Fatal(err)
	}
	got, _ := receiver.Read(0x200000, n)
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted over lossy link")
	}
	rb, _, _ := receiver.Received(buf)
	if rb != int64(n) {
		t.Errorf("Received = %d, want exactly %d (no duplicates)", rb, n)
	}
	if _, _, dropped, _ := c.Network().Stats(); dropped == 0 {
		t.Error("no packet dropped at a 30% drop rate")
	}
}

func TestCorruptingNetworkRecovers(t *testing.T) {
	c, sender, receiver := pair(t, Options{
		Injector: fault.NewInjector(13, fault.Plan{fault.SiteFabricCorrupt: {Rate: 0.2}}),
	})
	const n = 16 * units.PageSize
	buf, _ := receiver.Export(0x200000, n)
	imp, _ := sender.Import(1, buf)
	data := pattern(n, 4)
	sender.Write(0x100000, data)
	if err := sender.Send(imp, 0, 0x100000, n); err != nil {
		t.Fatal(err)
	}
	got, _ := receiver.Read(0x200000, n)
	if !bytes.Equal(got, data) {
		t.Fatal("corruption leaked through CRC + retransmission")
	}
	if _, _, _, corrupted := c.Network().Stats(); corrupted == 0 {
		t.Error("no packet corrupted at a 20% corruption rate")
	}
}

func TestSendPinsViaUTLB(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	buf, _ := receiver.Export(0x200000, 2*units.PageSize)
	imp, _ := sender.Import(1, buf)
	sender.Write(0x100000, pattern(2*units.PageSize, 6))

	if err := sender.Send(imp, 0, 0x100000, 2*units.PageSize); err != nil {
		t.Fatal(err)
	}
	st := sender.Lib().Stats()
	if st.CheckMisses != 1 || st.PagesPinned != 2 {
		t.Errorf("first send: %+v", st)
	}
	// Second send of the same buffer: pure check hit, no pins, no
	// syscalls — the paper's common path.
	if err := sender.Send(imp, 0, 0x100000, 2*units.PageSize); err != nil {
		t.Fatal(err)
	}
	st = sender.Lib().Stats()
	if st.CheckMisses != 1 || st.PagesPinned != 2 {
		t.Errorf("second send pinned again: %+v", st)
	}
	if sender.Node().Host().InterruptCount() != 0 {
		t.Error("UTLB path raised host interrupts")
	}
}

func TestClocksAdvanceAcrossTransfer(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	buf, _ := receiver.Export(0x200000, units.PageSize)
	imp, _ := sender.Import(1, buf)
	sender.Write(0x100000, pattern(units.PageSize, 1))

	s0 := sender.Node().NIC().Clock().Now()
	r0 := receiver.Node().NIC().Clock().Now()
	if err := sender.Send(imp, 0, 0x100000, units.PageSize); err != nil {
		t.Fatal(err)
	}
	sd := sender.Node().NIC().Clock().Now() - s0
	rd := receiver.Node().NIC().Clock().Now() - r0
	if sd <= 0 || rd <= 0 {
		t.Errorf("clocks static: sender %v receiver %v", sd, rd)
	}
	// A one-page transfer should take tens of microseconds: DMA out,
	// wire, DMA in.
	if us := sd.Micros(); us < 20 || us > 500 {
		t.Errorf("one-page send took %.1fus, expected 20-500us", us)
	}
}

func TestProcDuplicatePID(t *testing.T) {
	c, err := NewCluster(Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(0).NewProcess(1, "a", 0, core.LibConfig{Policy: core.LRU}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(0).NewProcess(1, "b", 0, core.LibConfig{Policy: core.LRU}); err == nil {
		t.Error("duplicate pid accepted")
	}
	if c.Node(5) != nil {
		t.Error("out-of-range node lookup")
	}
}

func TestMultiProcessSameNode(t *testing.T) {
	c, err := NewCluster(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Node(0).NewProcess(1, "a", 0, core.LibConfig{Policy: core.LRU})
	b, _ := c.Node(0).NewProcess(2, "b", 0, core.LibConfig{Policy: core.LRU})
	r, _ := c.Node(1).NewProcess(3, "r", 0, core.LibConfig{Policy: core.LRU})

	bufA, _ := r.Export(0x200000, units.PageSize)
	bufB, _ := r.Export(0x600000, units.PageSize)
	impA, _ := a.Import(1, bufA)
	impB, _ := b.Import(1, bufB)

	da, db := pattern(units.PageSize, 1), pattern(units.PageSize, 2)
	a.Write(0x100000, da)
	b.Write(0x100000, db) // same VA, different address space
	if err := a.Send(impA, 0, 0x100000, units.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(impB, 0, 0x100000, units.PageSize); err != nil {
		t.Fatal(err)
	}
	ga, _ := r.Read(0x200000, units.PageSize)
	gb, _ := r.Read(0x600000, units.PageSize)
	if !bytes.Equal(ga, da) || !bytes.Equal(gb, db) {
		t.Error("per-process isolation broken: payloads crossed")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Nodes != 2 || o.HostMemBytes != 64*units.MB || o.CacheEntries != 8192 {
		t.Errorf("defaults = %+v", o)
	}
}
