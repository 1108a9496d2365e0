package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"utlb/internal/core"
	"utlb/internal/units"
)

func sample() Trace {
	return Trace{
		{Time: 300, Node: 0, PID: 2, Op: Fetch, VA: 0x2000, Bytes: 4096},
		{Time: 100, Node: 0, PID: 1, Op: Send, VA: 0x1000, Bytes: 4096},
		{Time: 200, Node: 1, PID: 3, Op: Send, VA: 0x1800, Bytes: 100},
		{Time: 200, Node: 0, PID: 4, Op: Send, VA: 0x0, Bytes: 1},
	}
}

func TestOpString(t *testing.T) {
	if Send.String() != "send" || Fetch.String() != "fetch" {
		t.Error("Op strings wrong")
	}
	if Op(7).String() == "" {
		t.Error("unknown op should format")
	}
}

func TestSortByTime(t *testing.T) {
	tr := sample()
	tr.SortByTime()
	for i := 1; i < len(tr); i++ {
		if tr[i].Time < tr[i-1].Time {
			t.Fatalf("not sorted at %d", i)
		}
	}
	// Equal timestamps tie-break by node.
	if tr[1].Node != 0 || tr[2].Node != 1 {
		t.Errorf("tie-break wrong: %+v %+v", tr[1], tr[2])
	}
}

func TestMerge(t *testing.T) {
	a := Trace{{Time: 5, PID: 1}}
	b := Trace{{Time: 3, PID: 2}, {Time: 7, PID: 2}}
	m := Merge(a, b)
	if len(m) != 3 || m[0].Time != 3 || m[1].Time != 5 || m[2].Time != 7 {
		t.Errorf("Merge = %+v", m)
	}
}

func TestFootprintAndLookups(t *testing.T) {
	tr := Trace{
		{PID: 1, VA: 0, Bytes: 4096},    // page 0
		{PID: 1, VA: 0, Bytes: 4096},    // page 0 again
		{PID: 1, VA: 4096, Bytes: 8192}, // pages 1,2
		{PID: 2, VA: 0, Bytes: 1},       // page 0, other pid
		{PID: 1, VA: 4095, Bytes: 2},    // pages 0,1
	}
	if tr.Lookups() != 5 {
		t.Errorf("Lookups = %d", tr.Lookups())
	}
	if got := tr.Footprint(); got != 4 {
		t.Errorf("Footprint = %d, want 4 (pid1: 0,1,2; pid2: 0)", got)
	}
}

func TestPIDs(t *testing.T) {
	tr := sample()
	pids := tr.PIDs()
	want := []units.ProcID{1, 2, 3, 4}
	if !reflect.DeepEqual(pids, want) {
		t.Errorf("PIDs = %v", pids)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", got, tr)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTATRACE")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteBinary(&buf, sample())
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", got, tr)
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n100 0 1 send 0x1000 4096\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
	if got[0].VA != 0x1000 || got[0].Op != Send {
		t.Errorf("record = %+v", got[0])
	}
}

func TestTextBadInput(t *testing.T) {
	for _, in := range []string{"garbage", "1 2 3 teleport 0x0 1", "1 2\n"} {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(times []uint32, seed uint8) bool {
		tr := make(Trace, len(times))
		for i, tm := range times {
			tr[i] = Record{
				Time:  units.Time(tm),
				Node:  units.NodeID(i % 4),
				PID:   units.ProcID(i%16 + 1),
				Op:    Op(i % 2),
				VA:    units.VAddr(uint64(tm) * 4096 % (1 << 31)),
				Bytes: int32(int(seed)*7 + 1),
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(tr) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIsSortedByTime(t *testing.T) {
	sorted := Trace{
		{Time: 1, Node: 0, PID: 1},
		{Time: 1, Node: 0, PID: 2},
		{Time: 1, Node: 1, PID: 1},
		{Time: 5, Node: 0, PID: 1},
	}
	if !sorted.IsSortedByTime() {
		t.Error("sorted trace reported unsorted")
	}
	if !(Trace{}).IsSortedByTime() || !(Trace{{Time: 9}}).IsSortedByTime() {
		t.Error("trivial traces reported unsorted")
	}
	for name, tr := range map[string]Trace{
		"time": {{Time: 5}, {Time: 1}},
		"node": {{Time: 1, Node: 2}, {Time: 1, Node: 1}},
		"pid":  {{Time: 1, Node: 0, PID: 2}, {Time: 1, Node: 0, PID: 1}},
	} {
		if tr.IsSortedByTime() {
			t.Errorf("%s-unsorted trace reported sorted", name)
		}
		tr.SortByTime()
		if !tr.IsSortedByTime() {
			t.Errorf("%s: SortByTime left trace unsorted", name)
		}
	}
}

// TestSortByTimeMatchesSliceStable holds SortByTime to the
// reflection-based stable sort it replaced, on traces dense in ties of
// (time, node, pid) that differ in their other fields, so any
// reordering of equal records shows.
func TestSortByTimeMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	for _, n := range []int{0, 1, 2, 12, 13, 100, 1000, 5000} {
		tr := make(Trace, n)
		for i := range tr {
			tr[i] = Record{
				Time: units.Time(rng.Intn(20)), Node: units.NodeID(rng.Intn(2)), PID: units.ProcID(rng.Intn(3)),
				VA: units.VAddr(i), Bytes: int32(rng.Intn(9000)), Op: Op(rng.Intn(2)),
			}
		}
		want := slices.Clone(tr)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.Time != b.Time {
				return a.Time < b.Time
			}
			if a.Node != b.Node {
				return a.Node < b.Node
			}
			return a.PID < b.PID
		})
		tr.SortByTime()
		if !slices.Equal(tr, want) {
			t.Errorf("%d records: SortByTime differs from sort.SliceStable", n)
		}
	}
}

// FuzzTraceCodec: whatever the bytes, each reader either refuses them
// or returns records a replay can take — a known op, a non-negative
// size, a buffer inside the address space — and those records survive
// binary → text → binary unchanged. The corpus under testdata/fuzz
// holds both formats, a truncated record, a bad magic, and one record
// per refusal; its VA = 0x2_0000_0000 record used to panic utlbsim
// -trace on a pool goroutine.
func FuzzTraceCodec(f *testing.F) {
	const space = uint64(core.VASpacePages) * units.PageSize
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, read := range []func(io.Reader) (Trace, error){ReadBinary, ReadText} {
			tr, err := read(bytes.NewReader(data))
			if err != nil {
				continue
			}
			for i, r := range tr {
				if (r.Op != Send && r.Op != Fetch) || r.Bytes < 0 || uint64(r.VA) >= space || uint64(r.Bytes) > space-uint64(r.VA) {
					t.Fatalf("record %d accepted: %+v", i, r)
				}
			}
			var txt, bin bytes.Buffer
			if err := WriteText(&txt, tr); err != nil {
				t.Fatal(err)
			}
			viaText, err := ReadText(&txt)
			if err != nil || !slices.Equal(viaText, tr) {
				t.Fatalf("text round trip: %v\n got %+v\nwant %+v", err, viaText, tr)
			}
			if err := WriteBinary(&bin, viaText); err != nil {
				t.Fatal(err)
			}
			if back, err := ReadBinary(&bin); err != nil || !slices.Equal(back, tr) {
				t.Fatalf("binary round trip: %v\n got %+v\nwant %+v", err, back, tr)
			}
		}
	})
}

// TestRecordLayout: a Record is 32 bytes, its fields widest first with
// nothing padded but the tail after Op. Every replay reads a trace
// record by record, so 8 bytes of padding is a quarter more memory
// traffic per record.
func TestRecordLayout(t *testing.T) {
	var r Record
	if size := unsafe.Sizeof(r); size != 32 {
		t.Errorf("Record is %d bytes, want 32", size)
	}
	if off := unsafe.Offsetof(r.Op); off != 28 {
		t.Errorf("Record.Op at offset %d, want 28 (every wider field ahead of it)", off)
	}
}
