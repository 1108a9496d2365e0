package xlate

import (
	"reflect"
	"testing"
	"unsafe"

	"utlb/internal/tlbcache"
)

// mallocHeader is how far past a line boundary Go starts a slice of
// over 512 bytes whose elements hold pointers: the allocation's type
// header comes first.
const mallocHeader = 8

// TestShardLayout holds the shard record to whole cache lines, with the
// lock and the counters a hit writes in its first line, so that a field
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
	hot := []span{{"mu", unsafe.Offsetof(sh.mu), unsafe.Sizeof(sh.mu)}}
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
