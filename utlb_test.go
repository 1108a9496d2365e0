package utlb_test

// Facade tests: exercise the public API end to end, the way a
// downstream user would.

import (
	"bytes"
	"strings"
	"testing"

	"utlb"
)

func TestFacadeClusterRoundTrip(t *testing.T) {
	cluster, err := utlb.NewCluster(utlb.ClusterOptions{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.Node(0).NewProcess(1, "s", 0, utlb.LibConfig{Policy: utlb.LRU})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cluster.Node(1).NewProcess(2, "r", 0, utlb.LibConfig{Policy: utlb.LRU})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := r.Export(0x2000_0000, utlb.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := s.Import(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("through the facade")
	if err := s.Write(0x1000_0000, msg); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(imp, 0, 0x1000_0000, len(msg)); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read(0x2000_0000, len(msg))
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestFacadeSimulate(t *testing.T) {
	tr, err := utlb.GenerateTrace("barnes", 7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := utlb.DefaultSimConfig()
	cfg.CacheEntries = 256
	res, err := utlb.Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lookups == 0 || res.NIMissRate() <= 0 {
		t.Errorf("empty result: %+v", res)
	}
	cfg.Mechanism = utlb.Interrupt
	intr, err := utlb.Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if intr.Unpins < res.Unpins {
		t.Error("baseline should unpin at least as much as UTLB")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if got := len(utlb.Workloads()); got != 7 {
		t.Errorf("Workloads = %d", got)
	}
	if _, err := utlb.WorkloadByName("fft"); err != nil {
		t.Error(err)
	}
	if _, err := utlb.GenerateTrace("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFacadeTraceIO(t *testing.T) {
	tr, err := utlb.GenerateTrace("volrend", 3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var bin, txt bytes.Buffer
	if err := utlb.WriteTrace(&bin, tr); err != nil {
		t.Fatal(err)
	}
	got, err := utlb.ReadTrace(&bin)
	if err != nil || len(got) != len(tr) {
		t.Fatalf("binary round trip: %d vs %d, %v", len(got), len(tr), err)
	}
	if err := utlb.WriteTraceText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	got, err = utlb.ReadTraceText(&txt)
	if err != nil || len(got) != len(tr) {
		t.Fatalf("text round trip: %d vs %d, %v", len(got), len(tr), err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	names := utlb.ExperimentNames()
	if len(names) < 10 {
		t.Fatalf("ExperimentNames = %v", names)
	}
	var sb strings.Builder
	opts := utlb.ExperimentOptions{Scale: 0.02, Seed: 7, Apps: []string{"water-spatial"}}
	if err := utlb.RunExperiment("table1", opts, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pin") {
		t.Error("table1 output malformed")
	}
	if err := utlb.RunExperiment("not-a-table", opts, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeUnits(t *testing.T) {
	if utlb.FromMicros(1.5).Micros() != 1.5 {
		t.Error("FromMicros round trip")
	}
	if utlb.PageSize != 4096 {
		t.Error("PageSize")
	}
}

// TestFacadeObservability drives the cluster layer with a recorder
// attached and exports the timeline through both facade exporters: the
// VMMC send path must surface library checks, cache traffic, firmware
// send/recv and DMA as events, and both outputs must parse /
// render deterministically.
func TestFacadeObservability(t *testing.T) {
	buf := utlb.NewEventBuffer("cluster/send")
	cluster, err := utlb.NewCluster(utlb.ClusterOptions{Nodes: 2, Recorder: buf})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := cluster.Node(0).NewProcess(1, "sender", 0, utlb.LibConfig{Policy: utlb.LRU})
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := cluster.Node(1).NewProcess(2, "receiver", 0, utlb.LibConfig{Policy: utlb.LRU})
	if err != nil {
		t.Fatal(err)
	}
	bufID, err := receiver.Export(0x2000_0000, utlb.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := sender.Import(1, bufID)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("observed end to end")
	sender.Write(0x1000_0000, msg)
	if err := sender.Send(imp, 0, 0x1000_0000, len(msg)); err != nil {
		t.Fatal(err)
	}

	if buf.Len() == 0 {
		t.Fatal("cluster recorded no events")
	}
	var kinds []string
	seen := map[string]bool{}
	for _, ev := range buf.Events() {
		if !seen[ev.Kind.String()] {
			seen[ev.Kind.String()] = true
			kinds = append(kinds, ev.Kind.String())
		}
	}
	for _, want := range []string{"vmmc_send", "vmmc_recv", "dma_read", "host_pin"} {
		if !seen[want] {
			t.Errorf("missing %q in recorded kinds %v", want, kinds)
		}
	}

	runs := []utlb.EventRun{buf.Run()}
	var chrome, chrome2, metrics strings.Builder
	if err := utlb.WriteChromeTrace(&chrome, runs); err != nil {
		t.Fatal(err)
	}
	if err := utlb.WriteMetrics(&metrics, runs); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(chrome.String(), `{"traceEvents":[`) {
		t.Error("chrome export malformed")
	}
	if !strings.Contains(metrics.String(), `utlb_events_total{kind="vmmc_send",comp="vmmc"}`) {
		t.Errorf("metrics missing send counter:\n%s", metrics.String())
	}
	if err := utlb.WriteChromeTrace(&chrome2, runs); err != nil {
		t.Fatal(err)
	}
	if chrome.String() != chrome2.String() {
		t.Error("chrome export not deterministic")
	}
}
