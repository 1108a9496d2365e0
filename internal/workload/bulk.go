package workload

import (
	"math/rand"

	"utlb/internal/trace"
	"utlb/internal/units"
)

// BulkTransfer synthesises a multi-page transfer workload. The SVM
// traces of Table 3 move one 4 KB page per operation — which is why
// the paper equates operations with lookups — but VMMC itself places
// no size limit on a transfer (§2), and bulk users of the interface
// (file staging, checkpointing, out-of-core arrays) move tens of
// kilobytes per send. Those are the operations where a batched
// translation dispatch has work to amortise: every page of a transfer
// needs its own translation, but only the first needs the firmware's
// full dispatch entry.
//
// Four processes issue ops of 1-16 pages (uniform) over a shared
// region, page aligned, at the paper's ~10 µs op cadence with seeded
// jitter. Records are emitted in time order into one allocation.
func BulkTransfer(node units.NodeID, firstPID units.ProcID, seed int64, scale float64) trace.Trace {
	if scale <= 0 {
		scale = 1.0
	}
	ops := scaleInt(4000, scale)
	footprint := scaleInt(8192, scale)
	rng := rand.New(rand.NewSource(seed*61 + int64(node)))
	out := make(trace.Trace, ops)
	var t units.Time
	for i := range out {
		t += units.FromMicros(8 + 4*rng.Float64())
		pages := 1 + rng.Intn(16)
		op := trace.Send
		if rng.Float64() < 0.25 {
			op = trace.Fetch
		}
		out[i] = trace.Record{
			Time:  t,
			Node:  node,
			PID:   firstPID + units.ProcID(rng.Intn(4)),
			Op:    op,
			VA:    (regionBase + units.VPN(rng.Intn(footprint))).Addr(),
			Bytes: int32(pages) * units.PageSize,
		}
	}
	return out
}
