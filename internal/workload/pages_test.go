package workload

import "testing"

func pageStats(seq []int, footprint int) (distinct int, ok bool) {
	seen := map[int]bool{}
	for _, p := range seq {
		if p < 0 || p >= footprint {
			return 0, false
		}
		seen[p] = true
	}
	return len(seen), true
}

func TestZipfPagesShape(t *testing.T) {
	seq := ZipfPages(7, 1000, 20000, 1.3)
	if len(seq) != 20000 {
		t.Fatalf("len = %d", len(seq))
	}
	if _, ok := pageStats(seq, 1000); !ok {
		t.Fatal("page out of range")
	}
	// Skewed: the hottest decile gets well over its uniform share.
	low := 0
	for _, p := range seq {
		if p < 100 {
			low++
		}
	}
	if low < len(seq)/2 {
		t.Errorf("hottest decile got %d/%d accesses; zipf should concentrate", low, len(seq))
	}
	again := ZipfPages(7, 1000, 20000, 1.3)
	for i := range seq {
		if seq[i] != again[i] {
			t.Fatal("zipf sequence not deterministic")
		}
	}
}
