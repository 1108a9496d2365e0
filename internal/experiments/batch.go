package experiments

import (
	"fmt"

	"utlb/internal/stats"
	"utlb/internal/workload"
)

// batchWidths is the BatchSweep dispatch-width sweep; width 1 is the
// paper's page-at-a-time model and the sweep's baseline.
var batchWidths = []int{1, 2, 4, 8, 16}

// BatchSweep sweeps the firmware's translation batch width over a
// multi-page bulk-transfer workload (see workload.BulkTransfer). With
// batching, the first page of each dispatch pays the full lookup entry
// cost and later pages only the per-entry increment, so NIC time falls
// toward the per-entry floor as the width covers whole transfers; miss
// behaviour is unchanged — batching reorders no probes and skips none.
// Width 1 reproduces the unbatched cost model exactly.
func BatchSweep(opts Options) (*stats.Table, error) {
	tbl := stats.NewTable(
		"Batch sweep: translation dispatch width on bulk transfers (4-64 KB sends, default cache)",
		"batch", "ni-refs", "miss%", "nic-time-ms", "avg-nic-lookup-us", "nic-speedup")
	bulk := supplied(workload.BulkTransfer(0, 1, opts.Seed, opts.scale()))
	var cells []cell
	for _, b := range batchWidths {
		cfg := opts.config()
		cfg.BatchPages = b
		cells = append(cells, cell{fmt.Sprintf("batchsweep/b%02d", b), bulk, cfg})
	}
	results, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	base := results[0].NICTime
	for i, res := range results {
		tbl.AddRow(
			fmt.Sprintf("%d", batchWidths[i]),
			fmt.Sprintf("%d", res.NIRefs),
			fmt.Sprintf("%.1f", 100*res.NIMissRatio()),
			fmt.Sprintf("%.2f", res.NICTime.Micros()/1000),
			fmt.Sprintf("%.2f", res.AvgNICLookupCost().Micros()),
			fmt.Sprintf("%.2fx", float64(base)/float64(res.NICTime)),
		)
	}
	return tbl, nil
}
