package xlate

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"utlb/internal/telemetry"
	"utlb/internal/tlbcache"
)

// mallocHeader is how far past a line boundary Go starts a slice of
// over 512 bytes whose elements hold pointers: the allocation's type
// header comes first.
const mallocHeader = 8

// TestShardLayout holds the shard record to whole cache lines, with the
// lock, the state every reader loads and the counters a locked hit
// writes in its first line, so that a field
// added to shard or tlbcache.Cache cannot bring back false sharing
// between shards unnoticed. A record may start mallocHeader bytes into
// a line; so the hot fields end that much before the line does, and
// the record ends in at least that much pad, which nothing touches.
func TestShardLayout(t *testing.T) {
	var sh shard
	size := unsafe.Sizeof(sh)
	if size%cacheLine != 0 {
		t.Errorf("shard record is %d bytes, not a multiple of %d", size, cacheLine)
	}
	if pad := size - unsafe.Offsetof(sh.cache) - unsafe.Sizeof(sh.cache); pad < mallocHeader {
		t.Errorf("shard record ends in %d bytes of pad, want at least %d", pad, mallocHeader)
	}
	type span struct {
		name      string
		off, size uintptr
	}
	hot := []span{{"mu", unsafe.Offsetof(sh.mu), unsafe.Sizeof(sh.mu)}, {"state", unsafe.Offsetof(sh.state), unsafe.Sizeof(sh.state)}}
	cacheType := reflect.TypeOf(tlbcache.Cache{})
	for _, name := range []string{"tick", "hits", "misses"} {
		f, ok := cacheType.FieldByName(name)
		if !ok {
			t.Fatalf("tlbcache.Cache has no field %s", name)
		}
		hot = append(hot, span{"cache." + name, unsafe.Offsetof(sh.cache) + f.Offset, f.Type.Size()})
	}
	for _, f := range hot {
		if end := f.off + f.size; end > cacheLine-mallocHeader {
			t.Errorf("%s ends at byte %d of the shard record, past %d", f.name, end, cacheLine-mallocHeader)
		}
	}

	// The allocator places the shard slice where the bounds above assume.
	for _, shards := range []int{1, 8, maxShards} {
		s, err := New(Config{Shards: shards, Entries: 64, Ways: 4})
		if err != nil {
			t.Fatal(err)
		}
		if off := uintptr(unsafe.Pointer(&s.shards[0])) % cacheLine; off != 0 && off != mallocHeader {
			t.Errorf("%d shards start %d bytes into a cache line, want 0 or %d", shards, off, mallocHeader)
		}
	}
}

// TestSlotLayout holds the reader slots apart: a slot's claim mutex
// and slice header sit in the first line of its 64-byte record,
// whatever line offset the slot slice starts at, each slot's records
// start on a line, and a record's presence word, which writers load,
// has its line to itself.
func TestSlotLayout(t *testing.T) {
	var sl slot
	if size := unsafe.Sizeof(sl); size != cacheLine {
		t.Errorf("slot record is %d bytes, want %d", size, cacheLine)
	}
	var r reader
	if size := unsafe.Sizeof(r); size%cacheLine != 0 || unsafe.Offsetof(r.seen) < cacheLine {
		t.Errorf("reader record is %d bytes with seen at byte %d; want whole lines, presence alone in the first", size, unsafe.Offsetof(r.seen))
	}
	if end := unsafe.Offsetof(sl.rec) + unsafe.Sizeof(sl.rec); end > cacheLine-mallocHeader {
		t.Errorf("slot fields end at byte %d, past %d", end, cacheLine-mallocHeader)
	}
	for _, shards := range []int{1, 8, maxShards} {
		s, err := New(Config{Shards: shards, Entries: 64, Ways: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(s.slots); got != runtime.GOMAXPROCS(0) {
			t.Errorf("%d slots, want one per GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
		}
		if off := uintptr(unsafe.Pointer(&s.slots[0])) % cacheLine; off != 0 && off != mallocHeader {
			t.Errorf("%d shards: slots start %d bytes into a cache line, want 0 or %d", shards, off, mallocHeader)
		}
		for j := range s.slots {
			if off := uintptr(unsafe.Pointer(&s.slots[j].rec[0])) % cacheLine; off != 0 {
				t.Errorf("%d shards: slot %d's records start %d bytes into a cache line", shards, j, off)
			}
		}
	}
}

// TestSinkLayout holds telemetry.Sink's request counter, which every
// request writes, in a line no other field reaches, whatever the
// sink's alignment: the 56 bytes on each side of it are blank pad.
func TestSinkLayout(t *testing.T) {
	typ := reflect.TypeOf(telemetry.Sink{})
	seq, ok := typ.FieldByName("reqSeq")
	if !ok {
		t.Fatal("telemetry.Sink has no field reqSeq")
	}
	lo, hi := seq.Offset+seq.Type.Size()-cacheLine, seq.Offset+cacheLine
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" || f.Name == "reqSeq" {
			continue
		}
		if f.Offset < hi && f.Offset+f.Type.Size() > lo {
			t.Errorf("Sink.%s (bytes %d-%d) lies within a line of reqSeq (byte %d)", f.Name, f.Offset, f.Offset+f.Type.Size(), seq.Offset)
		}
	}
}
