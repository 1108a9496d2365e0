package sim

import (
	"fmt"
	"testing"

	"utlb/internal/obs"
	evcheck "utlb/internal/obs/check"
	"utlb/internal/trace"
	"utlb/internal/workload"
)

// TestEventStreamsPassTheChecker runs the event-stream checker over
// TestEveryMechanism's matrix: every design × {fft, bulk} × batch
// {1, 8} × {sequential, overlap on 1 and 2 channels}, pins limited to 64
// pages.
func TestEventStreamsPassTheChecker(t *testing.T) {
	traces := map[string]trace.Trace{
		"fft":  smallTrace(t, "fft", 0.05),
		"bulk": workload.BulkTransfer(0, 1, 42, 0.05),
	}
	var evictions int64
	for i := range designs {
		for app, tr := range traces {
			for _, batch := range []int{1, 8} {
				for _, channels := range []int{0, 1, 2} {
					c := designCfg(Mechanism(i), 256)
					c.BatchPages, c.PinLimitPages = batch, 64
					c.Overlap = OverlapConfig{Enabled: channels > 0, DMAChannels: channels}
					if c.Validate() != nil {
						continue // the design has no batched dispatch
					}
					name := fmt.Sprintf("%v/%s/batch%d/ch%d", c.Mechanism, app, batch, channels)
					buf := obs.NewBuffer(name)
					c.Recorder = buf
					res, err := RunWith(tr, c, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := evcheck.Run(buf.Run(), c.PinLimitPages); err != nil {
						t.Errorf("%s: %v", name, err)
					}
					if c.Mechanism == UTLB {
						evictions += res.Unpins // the library unpins only to make room
					}
				}
			}
		}
	}
	if evictions == 0 {
		t.Error("no UTLB run evicted: the matrix never reached its pin limit")
	}
}
