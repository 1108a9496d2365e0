package vmmc

import (
	"testing"

	"utlb/internal/obs"
	"utlb/internal/units"
)

// TestTransferIDSpansNodes asserts the cluster-wide transfer cursor
// stitches one send's chain across machines: the sender's check,
// probe, DMA and vmmc_send events and the receiver's deposit-side
// translations and vmmc_recv all share one id, distinct from the ids of
// the receiver's earlier Export.
func TestTransferIDSpansNodes(t *testing.T) {
	buf := obs.NewBuffer("cluster")
	_, sender, receiver := pair(t, Options{Recorder: buf})

	const n = units.PageSize + 100
	recvVA := units.VAddr(0x200000)
	id, err := receiver.Export(recvVA, n)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := sender.Import(1, id)
	if err != nil {
		t.Fatal(err)
	}
	exportEvents := buf.Len()

	sendVA := units.VAddr(0x100000)
	if err := sender.Write(sendVA, pattern(n, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(imp, 0, sendVA, n); err != nil {
		t.Fatal(err)
	}

	events := buf.Events()
	// The export is its own transfer; the send another. No event may be
	// unattributed.
	var exportID, sendID uint32
	nodes := map[units.NodeID]bool{}
	kinds := map[obs.Kind]int{}
	for i, ev := range events {
		if ev.Xfer == 0 {
			t.Fatalf("event %d (%s) unattributed", i, ev.Kind)
		}
		if i < exportEvents {
			if exportID == 0 {
				exportID = ev.Xfer
			}
			if ev.Xfer != exportID {
				t.Fatalf("export events carry ids %d and %d", exportID, ev.Xfer)
			}
			continue
		}
		if sendID == 0 {
			sendID = ev.Xfer
		}
		if ev.Xfer != sendID {
			t.Fatalf("send chain split across ids %d and %d (%s)", sendID, ev.Xfer, ev.Kind)
		}
		nodes[ev.Node] = true
		kinds[ev.Kind]++
	}
	if exportID == sendID {
		t.Fatalf("export and send share transfer id %d", exportID)
	}
	if !nodes[0] || !nodes[1] {
		t.Fatalf("send chain did not span both nodes: %v", nodes)
	}
	for _, k := range []obs.Kind{obs.KindSend, obs.KindRecv, obs.KindNIProbe} {
		if kinds[k] == 0 {
			t.Errorf("send chain missing %s events", k)
		}
	}
}

// TestRecorderDoesNotChangeTransfer runs the same send with and
// without recording and checks the data and the firmware counters
// agree — transfer-id plumbing must be strictly observational.
func TestRecorderDoesNotChangeTransfer(t *testing.T) {
	run := func(rec obs.Recorder) (data []byte, sent, recvd int64) {
		opts := Options{}
		if rec != nil {
			opts.Recorder = rec
		}
		c, sender, receiver := pair(t, opts)
		const n = 2*units.PageSize + 17
		recvVA := units.VAddr(0x300000)
		id, err := receiver.Export(recvVA, n)
		if err != nil {
			t.Fatal(err)
		}
		imp, err := sender.Import(1, id)
		if err != nil {
			t.Fatal(err)
		}
		sendVA := units.VAddr(0x101000)
		if err := sender.Write(sendVA, pattern(n, 9)); err != nil {
			t.Fatal(err)
		}
		if err := sender.Send(imp, 0, sendVA, n); err != nil {
			t.Fatal(err)
		}
		got, err := receiver.Read(recvVA, n)
		if err != nil {
			t.Fatal(err)
		}
		return got, c.Node(0).PagesSent(), c.Node(1).PagesReceived()
	}

	plainData, plainSent, plainRecvd := run(nil)
	obsData, obsSent, obsRecvd := run(obs.NewBuffer("x"))
	if string(plainData) != string(obsData) {
		t.Fatal("recording changed delivered data")
	}
	if plainSent != obsSent || plainRecvd != obsRecvd {
		t.Fatalf("recording changed firmware counters: %d/%d vs %d/%d",
			plainSent, plainRecvd, obsSent, obsRecvd)
	}
}
