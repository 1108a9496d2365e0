package vmmc

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"utlb/internal/obs"
	"utlb/internal/units"
)

func TestPostSendIsAsynchronous(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	buf, _ := receiver.Export(0x200000, 4*units.PageSize)
	imp, _ := sender.Import(1, buf)

	data := pattern(units.PageSize, 3)
	sender.Write(0x100000, data)
	if err := sender.PostSend(imp, 0, 0x100000, units.PageSize); err != nil {
		t.Fatal(err)
	}
	if sender.Queued() != 1 {
		t.Errorf("Queued = %d", sender.Queued())
	}
	// Nothing delivered until the MCP polls.
	if rb, _, _ := receiver.Received(buf); rb != 0 {
		t.Errorf("delivered %d bytes before poll", rb)
	}
	if err := sender.Node().PollAll(); err != nil {
		t.Fatal(err)
	}
	if sender.Queued() != 0 {
		t.Error("queue not drained")
	}
	got, _ := receiver.Read(0x200000, units.PageSize)
	if !bytes.Equal(got, data) {
		t.Error("queued send corrupted data")
	}
}

func TestQueuedCommandsExecuteInOrder(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	buf, _ := receiver.Export(0x200000, units.PageSize)
	imp, _ := sender.Import(1, buf)

	// Three sends to the same offset: the last posted must win.
	for i := byte(1); i <= 3; i++ {
		va := units.VAddr(0x100000) + units.VAddr(i)*units.PageSize
		sender.Write(va, bytes.Repeat([]byte{i}, 64))
		if err := sender.PostSend(imp, 0, va, 64); err != nil {
			t.Fatal(err)
		}
	}
	sender.Node().PollAll()
	got, _ := receiver.Read(0x200000, 64)
	if got[0] != 3 {
		t.Errorf("final value = %d, want 3 (in-order execution)", got[0])
	}
}

func TestQueueCapacity(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	buf, _ := receiver.Export(0x200000, units.PageSize)
	imp, _ := sender.Import(1, buf)
	sender.Write(0x100000, pattern(1, 1))

	var err error
	posted := 0
	for i := 0; i <= queueCapacity; i++ {
		err = sender.PostSend(imp, 0, 0x100000, 1)
		if err != nil {
			break
		}
		posted++
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if posted != queueCapacity {
		t.Errorf("posted %d, want %d", posted, queueCapacity)
	}
	// Draining frees the ring.
	if err := sender.Node().PollAll(); err != nil {
		t.Fatal(err)
	}
	if err := sender.PostSend(imp, 0, 0x100000, 1); err != nil {
		t.Errorf("post after drain: %v", err)
	}
	sender.Node().PollAll()
}

func TestQueuedPagesAreLockedAgainstEviction(t *testing.T) {
	// §3.1: pages with outstanding send requests must not be eviction
	// victims. A queued (unexecuted) command holds its pages locked,
	// so a pin-quota squeeze evicts other pages first — and an
	// impossible squeeze fails rather than tearing down the queued
	// buffer.
	c, err := NewCluster(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := c.Node(0).NewProcess(1, "s", 2, libCfgLRU()) // 2-page quota
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := c.Node(1).NewProcess(2, "r", 0, libCfgLRU())
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := receiver.Export(0x200000, 4*units.PageSize)
	imp, _ := sender.Import(1, buf)

	sender.Write(0x100000, pattern(units.PageSize, 1))
	if err := sender.PostSend(imp, 0, 0x100000, units.PageSize); err != nil {
		t.Fatal(err)
	}
	// A second buffer fits the quota by evicting... but the queued
	// page is locked; only the free quota slot is usable.
	sender.Write(0x300000, pattern(units.PageSize, 2))
	if err := sender.PostSend(imp, units.PageSize, 0x300000, units.PageSize); err != nil {
		t.Fatal(err)
	}
	// A third concurrent buffer cannot pin: both quota slots are
	// locked by outstanding sends.
	if err := sender.PostSend(imp, 2*units.PageSize, 0x500000, units.PageSize); err == nil {
		t.Fatal("third post succeeded despite locked quota")
	}
	// After the MCP drains, the locks drop and the third send works.
	if err := sender.Node().PollAll(); err != nil {
		t.Fatal(err)
	}
	sender.Write(0x500000, pattern(units.PageSize, 3))
	if err := sender.Send(imp, 2*units.PageSize, 0x500000, units.PageSize); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
}

func TestPollAllRoundRobinAcrossProcesses(t *testing.T) {
	c, err := NewCluster(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Node(0).NewProcess(1, "a", 0, libCfgLRU())
	b, _ := c.Node(0).NewProcess(2, "b", 0, libCfgLRU())
	r, _ := c.Node(1).NewProcess(3, "r", 0, libCfgLRU())
	buf, _ := r.Export(0x200000, 2*units.PageSize)
	impA, _ := a.Import(1, buf)
	impB, _ := b.Import(1, buf)

	a.Write(0x100000, pattern(64, 1))
	b.Write(0x100000, pattern(64, 2))
	a.PostSend(impA, 0, 0x100000, 64)
	b.PostSend(impB, units.PageSize, 0x100000, 64)
	if err := c.Node(0).PollAll(); err != nil {
		t.Fatal(err)
	}
	ga, _ := r.Read(0x200000, 64)
	gb, _ := r.Read(0x200000+units.PageSize, 64)
	if !bytes.Equal(ga, pattern(64, 1)) || !bytes.Equal(gb, pattern(64, 2)) {
		t.Error("round-robin drain lost a command")
	}
}

// TestPollAllOrderIsAscendingPID pins the polling order PollAll's doc
// promises: every pass visits the non-empty command buffers round-robin
// by ascending pid. The processes are created out of pid order, so a
// pass in the command map's own order shows in the recorded sends.
func TestPollAllOrderIsAscendingPID(t *testing.T) {
	rec := obs.NewBuffer("poll-order")
	c, err := NewCluster(Options{Nodes: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := c.Node(1).NewProcess(1, "r", 0, libCfgLRU())
	buf, _ := r.Export(0x200000, units.PageSize)
	pids := []units.ProcID{7, 3, 11, 5, 9}
	procs, imps := make([]*Proc, len(pids)), make([]*Imported, len(pids))
	for i, pid := range pids {
		if procs[i], err = c.Node(0).NewProcess(pid, fmt.Sprint("p", pid), 0, libCfgLRU()); err != nil {
			t.Fatal(err)
		}
		imps[i], _ = procs[i].Import(1, buf)
		procs[i].Write(0x100000, pattern(64, byte(pid)))
	}
	// Eight PollAll calls of two passes each: every pass re-reads the
	// set of queued processes.
	const rounds, perRound = 8, 2
	for round := 0; round < rounds; round++ {
		for i, p := range procs {
			for k := 0; k < perRound; k++ {
				if err := p.PostSend(imps[i], 0, 0x100000, 64); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.Node(0).PollAll(); err != nil {
			t.Fatal(err)
		}
	}
	var got, want []units.ProcID
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindSend {
			got = append(got, ev.PID)
		}
	}
	for range rounds * perRound {
		want = append(want, 3, 5, 7, 9, 11)
	}
	if !slices.Equal(got, want) {
		t.Errorf("sends executed in pid order %v,\nwant ascending round-robin %v", got, want)
	}
}

func TestPostSendValidation(t *testing.T) {
	_, sender, receiver := pair(t, Options{})
	buf, _ := receiver.Export(0x200000, units.PageSize)
	imp, _ := sender.Import(1, buf)
	if err := sender.PostSend(imp, -1, 0x100000, 4); err == nil {
		t.Error("negative offset accepted")
	}
	if err := sender.PostSend(nil, 0, 0, 4); err == nil {
		t.Error("nil handle accepted")
	}
	if err := sender.PostSend(imp, 0, 0x100000, 0); err != nil {
		t.Errorf("zero-byte post: %v", err)
	}
	if sender.Queued() != 0 {
		t.Error("zero-byte post queued a command")
	}
}
