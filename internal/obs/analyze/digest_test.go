package analyze

import (
	"math/rand"
	"sort"
	"testing"
)

// TestDigestIndexMonotonic checks the bucket mapping is monotonic and
// that digestValue inverts it: every value lands in a bucket whose
// lower bound is <= the value and whose successor bound is greater.
func TestDigestIndexMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 63, 64, 65, 126, 127, 128, 129,
		255, 256, 1 << 20, 1<<20 + 1, 1 << 40, 1<<63 - 1, 1 << 63} {
		idx := digestIndex(v)
		if idx < prev {
			t.Fatalf("digestIndex(%d) = %d < previous %d", v, idx, prev)
		}
		prev = idx
		if idx >= numDigestBuckets {
			t.Fatalf("digestIndex(%d) = %d out of range", v, idx)
		}
		lo := digestValue(idx)
		if uint64(lo) > v {
			t.Errorf("digestValue(%d) = %d > value %d", idx, lo, v)
		}
		if idx+1 < numDigestBuckets {
			if hi := digestValue(idx + 1); uint64(hi) <= v {
				t.Errorf("value %d at idx %d but next bound %d not above it", v, idx, hi)
			}
		}
	}
	if got := digestIndex(1<<63 | 1<<62); got != numDigestBuckets-1-16 {
		// Top octave, second sub-bucket block: just pin that huge values
		// stay in range rather than the exact bucket.
		if got >= numDigestBuckets {
			t.Fatalf("digestIndex(huge) = %d out of range", got)
		}
	}
}

// TestDigestQuantileAgainstSort compares digest quantiles to exact
// order statistics on random data: the digest bound must be within one
// sub-bucket (~3% relative error) of the true value.
func TestDigestQuantileAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var d Digest
	vals := make([]int64, 5000)
	for i := range vals {
		// Mix of magnitudes, matching ns durations from tens to billions.
		v := rng.Int63n(1 << uint(4+rng.Intn(28)))
		vals[i] = v
		d.Add(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if d.N() != int64(len(vals)) {
		t.Fatalf("N = %d, want %d", d.N(), len(vals))
	}
	if d.Max() != vals[len(vals)-1] {
		t.Fatalf("Max = %d, want %d", d.Max(), vals[len(vals)-1])
	}
	for _, p := range []int{50, 95, 99, 100} {
		rank := (int64(len(vals))*int64(p) + 99) / 100
		exact := vals[rank-1]
		got := d.Quantile(p)
		if got > exact {
			t.Errorf("Quantile(%d) = %d above exact %d", p, got, exact)
		}
		// Lower bound error is at most one sub-bucket: ~1/32 relative.
		if exact > 64 && got < exact-exact/16 {
			t.Errorf("Quantile(%d) = %d too far below exact %d", p, got, exact)
		}
	}
	if d.Quantile(100) != d.Max() {
		t.Errorf("Quantile(100) = %d, want Max %d", d.Quantile(100), d.Max())
	}
}

// TestDigestEmptyAndNegative pins edge behaviour: empty digest
// quantiles are zero, negative values clamp to zero.
func TestDigestEmptyAndNegative(t *testing.T) {
	var d Digest
	if d.Quantile(50) != 0 || d.Max() != 0 || d.N() != 0 {
		t.Fatal("empty digest not all-zero")
	}
	d.Add(-5)
	if d.N() != 1 || d.Max() != 0 || d.Sum() != 0 {
		t.Fatalf("negative add: N=%d Max=%d Sum=%d, want 1,0,0", d.N(), d.Max(), d.Sum())
	}
}

// TestDigestOrderIndependent asserts the digest state is identical
// regardless of Add order — the determinism the goldens rely on.
func TestDigestOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
	}
	var a, b Digest
	for _, v := range vals {
		a.Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Add(vals[i])
	}
	if a != b {
		t.Fatal("digest state differs across add orders")
	}
}

// TestDigestMerge: merging the digests of two parts of the data into
// an empty one gives the digest of all of it, state for state.
func TestDigestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var all, a, b, merged Digest
	for i := 0; i < 1000; i++ {
		v := rng.Int63n(1 << uint(1+rng.Intn(40)))
		all.Add(v)
		if i%3 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	merged.Merge(&a)
	merged.Merge(&b)
	if merged != all {
		t.Fatalf("merged digest differs: N %d/%d, Sum %d/%d, Max %d/%d",
			merged.N(), all.N(), merged.Sum(), all.Sum(), merged.Max(), all.Max())
	}
}
