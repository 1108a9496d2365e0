// Package analyze shows the analysis entry of allocstatic: maps built
// inside the scan, where a per-kind table and a slab do the same work.
package analyze

import "utlb/internal/obs"

type acc struct{ events, ns int64 }

var spanCat = [4]int8{-1, 0, 1, 1}

// Analyze is a hot entry point: the string-keyed category index and
// the per-run accumulator map are the positives; the table lookup and
// the slab sized up front are clean.
func Analyze(runs []obs.Run) int64 {
	catIndex := map[string]int{"check": 0, "dma": 1}
	var total int64
	slab := make([]acc, 0, 1024)
	for _, run := range runs {
		accs := make(map[uint64]*acc)
		for _, ev := range run.Events {
			if accs[ev.Arg] == nil {
				accs[ev.Arg] = &acc{}
			}
			accs[ev.Arg].events++
			total += int64(catIndex["dma"])

			if c := spanCat[ev.Kind&3]; c >= 0 {
				slab = append(slab, acc{events: 1, ns: ev.Time})
			}
		}
	}
	return total + int64(len(slab))
}
