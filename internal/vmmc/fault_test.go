package vmmc

import (
	"bytes"
	"errors"
	"testing"

	"utlb/internal/core"
	"utlb/internal/fabric"
	"utlb/internal/fault"
	"utlb/internal/obs"
	"utlb/internal/units"
)

// End-to-end tentpole scenario: an injected frame-exhaustion fault on
// the sender's pin path is absorbed by the host's reclaim-and-retry,
// and the transfer completes with intact data.
func TestSendSurvivesInjectedPinFault(t *testing.T) {
	// The shared pin point sees every pin attempt cluster-wide in
	// order: the receiver's export pin is check 1, the sender's send
	// pin is check 2 — where Every:2 fires. Its retry (check 3) pins
	// clean after a reclaim pass.
	inj := fault.NewInjector(7, fault.Plan{
		fault.SiteHostPin: {Every: 2},
	})
	c, err := NewCluster(Options{Nodes: 2, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	// The hog's pages (pid 1, low VPNs) are what the reclaimer takes:
	// ascending PID then VPN order keeps it away from the sender's
	// buffer.
	hog, err := c.Node(0).NewProcess(1, "hog", 0, core.LibConfig{Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	for vpn := units.VPN(4); vpn < 12; vpn++ {
		if _, err := hog.Node().Host().Process(1).Space().Touch(vpn); err != nil {
			t.Fatal(err)
		}
	}
	sender, err := c.Node(0).NewProcess(2, "sender", 0, core.LibConfig{Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := c.Node(1).NewProcess(3, "receiver", 0, core.LibConfig{Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}

	buf, err := receiver.Export(0x200000, units.PageSize) // pin check 1
	if err != nil {
		t.Fatal(err)
	}
	imp, err := sender.Import(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(units.PageSize, 5)
	if err := sender.Write(0x100000, data); err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(imp, 0, 0x100000, units.PageSize); err != nil { // pin check 2 faults
		t.Fatalf("send did not survive injected pin fault: %v", err)
	}

	got, _ := receiver.Read(0x200000, units.PageSize)
	if !bytes.Equal(got, data) {
		t.Error("data corrupted across reclaim-retry")
	}
	h := c.Node(0).Host()
	if h.Reclaims() != 1 || h.PinRetries() != 1 {
		t.Errorf("node 0: Reclaims = %d, PinRetries = %d, want 1 and 1",
			h.Reclaims(), h.PinRetries())
	}
	if got := inj.FiredAt(fault.SiteHostPin); got != 1 {
		t.Errorf("FiredAt(pin) = %d, want 1", got)
	}
}

// A dead link fails the send that meets it, not the node: the next
// send, from another process to another node, still runs and fails on
// its own. The fabric drops every packet from the first on
// (deadFromStart), so both sends meet a dead link; what the second
// shows is that the node serves it rather than staying wedged.
func TestSendContinuesPastDeadLink(t *testing.T) {
	c, err := NewCluster(Options{Nodes: 3, Injector: deadFromStart()})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := c.Node(0).NewProcess(1, "doomed", 0, core.LibConfig{Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	next, err := c.Node(0).NewProcess(2, "next", 0, core.LibConfig{Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.Node(1).NewProcess(3, "r1", 0, core.LibConfig{Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Node(2).NewProcess(4, "r2", 0, core.LibConfig{Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	buf1, _ := r1.Export(0x200000, units.PageSize)
	buf2, _ := r2.Export(0x200000, units.PageSize)
	imp1, _ := doomed.Import(1, buf1)
	imp2, _ := next.Import(2, buf2)

	doomed.Write(0x100000, pattern(64, 1))
	next.Write(0x100000, pattern(64, 2))
	if err := doomed.Send(imp1, 0, 0x100000, 64); !errors.Is(err, fabric.ErrLinkDead) {
		t.Fatalf("first Send = %v, want ErrLinkDead", err)
	}
	sent := c.Node(0).NIC().Clock().Now()
	if err := next.Send(imp2, 0, 0x100000, 64); !errors.Is(err, fabric.ErrLinkDead) {
		t.Fatalf("second Send = %v, want ErrLinkDead", err)
	}
	if c.Node(0).NIC().Clock().Now() < sent+RemapCost {
		t.Error("second send did not run its retries")
	}
}

// deadFromStart drops every packet the fabric carries. Every test
// using it sends its first packet after setup (Export and Import are
// local), so the link is dead from that packet on.
func deadFromStart() *fault.Injector {
	return fault.NewInjector(1, fault.Plan{fault.SiteFabricDrop: {After: 0, Every: 1}})
}

// With the link dead for good, a send gives up after every retry and
// reports ErrLinkDead.
func TestSendGivesUpOnDeadLink(t *testing.T) {
	_, sender, receiver := pair(t, Options{Injector: deadFromStart()})
	buf, _ := receiver.Export(0x200000, units.PageSize)
	imp, _ := sender.Import(1, buf)
	sender.Write(0x100000, pattern(10, 1))
	if err := sender.Send(imp, 0, 0x100000, 10); !errors.Is(err, fabric.ErrLinkDead) {
		t.Errorf("Send over a dead link = %v, want ErrLinkDead", err)
	}
}

// A link that drops 70% of packets (seed 7) kills a link-layer Send in
// both directions: the firmware backs off by RemapCost and re-sends,
// and the transfer completes intact. Each subtest asserts the retry
// fired, its backoff was charged and the data arrived, so a seed that
// stops reaching the retry path fails here rather than passing vacuously.
func TestSendRetryRecoversTransfer(t *testing.T) {
	const src, dst, n = units.VAddr(0x100000), units.VAddr(0x200000), 2 * units.PageSize
	data := pattern(n, 9)
	for _, fetch := range []bool{false, true} {
		name := "Send"
		if fetch {
			name = "Fetch"
		}
		t.Run(name, func(t *testing.T) {
			rec := obs.NewBuffer("retry")
			inj := fault.NewInjector(7, fault.Plan{fault.SiteFabricDrop: {Rate: 0.7}})
			_, local, remote := pair(t, Options{Injector: inj, Recorder: rec})
			// Either the local process stores src into the remote export
			// at dst, or it fetches the remote export at src into dst.
			from, to, exported := local, remote, dst
			if fetch {
				from, to, exported = remote, local, src
			}
			if err := from.Write(src, data); err != nil {
				t.Fatal(err)
			}
			buf, _ := remote.Export(exported, n)
			imp, _ := local.Import(1, buf)
			before := local.Node().NIC().Clock().Now()
			var err error
			if fetch {
				err = local.Fetch(imp, 0, dst, n)
			} else {
				err = local.Send(imp, 0, src, n)
			}
			if err != nil {
				t.Fatalf("transfer did not recover: %v", err)
			}
			retries := 0
			for _, ev := range rec.Events() {
				if ev.Kind == obs.KindSendRetry {
					retries++
				}
			}
			if retries == 0 {
				t.Error("no send_retry recorded: the drops never killed a link-layer Send")
			}
			if got := local.Node().NIC().Clock().Now() - before; got < RemapCost {
				t.Errorf("NIC clock advanced %v, less than one backoff of %v", got, RemapCost)
			}
			if got, _ := to.Read(dst, n); !bytes.Equal(got, data) {
				t.Error("data corrupted across the retry")
			}
		})
	}
}

// The same injector seed must produce the same faults and the same
// counters — run-to-run determinism at cluster level.
func TestInjectedFaultsAreDeterministic(t *testing.T) {
	run := func() (int64, int64, int64) {
		inj := fault.NewInjector(99, fault.Plan{
			fault.SiteFabricDrop:    {Rate: 0.2},
			fault.SiteFabricCorrupt: {Rate: 0.1},
		})
		c, sender, receiver := pair(t, Options{Injector: inj})
		buf, _ := receiver.Export(0x200000, 4*units.PageSize)
		imp, _ := sender.Import(1, buf)
		for i := 0; i < 16; i++ {
			sender.Write(0x100000, pattern(2*units.PageSize, byte(i)))
			if err := sender.Send(imp, 0, 0x100000, 2*units.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		_ = c
		return inj.Fired(), sender.Node().Retransmits(), int64(sender.Node().NIC().Clock().Now())
	}
	f1, r1, t1 := run()
	f2, r2, t2 := run()
	if f1 != f2 || r1 != r2 || t1 != t2 {
		t.Errorf("two identical runs diverged: faults %d/%d, retransmits %d/%d, clock %d/%d",
			f1, f2, r1, r2, t1, t2)
	}
	if f1 == 0 {
		t.Error("no faults fired at 20% drop over 16 sends — injector not wired")
	}
}
