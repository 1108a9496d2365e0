package experiments

import (
	"fmt"

	"utlb/internal/sim"
	"utlb/internal/stats"
	"utlb/internal/workload"
)

// overlapRow is one configuration of the overlap sweep: the
// sequential-compatibility baseline (channels = 0) and the event
// engine at increasing DMA pool widths.
type overlapRow struct {
	label    string
	channels int // 0 = sequential charging model
	prefetch int
}

// overlapRows pairs a no-prefetch engine run against prefetch-8 runs
// at pool widths 1/2/4. The prefetch contrast shows
// prefetch-under-miss (the NIC blocks only on the demand entry; the
// tail streams on the channel); the width sweep shows how far
// multi-channel DMA can go once fills leave the NIC's critical path.
var overlapRows = []overlapRow{
	{"sequential", 0, 8},
	{"overlap pf=1 ch=1", 1, 1},
	{"overlap pf=8 ch=1", 1, 8},
	{"overlap pf=8 ch=2", 2, 8},
	{"overlap pf=8 ch=4", 4, 8},
}

// Overlap compares the strictly serial charging model against the
// discrete-event engine on a transfer-heavy workload: DMA fills
// stream on a channel pool while the NIC resumes translation, and
// host pin work runs ahead of the NIC instead of adding to it. The
// sequential makespan is host + NIC time (nothing ever overlaps); the
// engine's makespan is the latest of the host/NIC/DMA horizons.
// Counters (lookups, misses, pins) are mode-invariant — only the
// timing model changes — so the speedup column isolates overlap
// itself. Byte-identical at any -parallel width: each run's kernel is
// confined to its worker.
func Overlap(opts Options) (*stats.Table, error) {
	tbl := stats.NewTable(
		"Overlap: discrete-event engine vs sequential charging on bulk transfers (UTLB, default cache)",
		"config", "lookups", "ni-miss%", "host-ms", "nic-ms", "dma-ms", "makespan-ms", "speedup")
	bulk := supplied(workload.BulkTransfer(0, 1, opts.Seed, opts.scale()))
	var cells []cell
	for _, row := range overlapRows {
		cfg := opts.config()
		cfg.Prefetch = row.prefetch
		if row.channels > 0 {
			cfg.Overlap = sim.OverlapConfig{Enabled: true, DMAChannels: row.channels}
		}
		cells = append(cells, cell{"overlap/" + row.label, bulk, cfg})
	}
	results, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	base := results[0].Makespan
	for i, res := range results {
		tbl.AddRow(
			overlapRows[i].label,
			fmt.Sprintf("%d", res.Lookups),
			fmt.Sprintf("%.1f", 100*res.NIMissRatio()),
			fmt.Sprintf("%.2f", res.HostTime.Micros()/1000),
			fmt.Sprintf("%.2f", res.NICTime.Micros()/1000),
			fmt.Sprintf("%.2f", res.DMATime.Micros()/1000),
			fmt.Sprintf("%.2f", res.Makespan.Micros()/1000),
			fmt.Sprintf("%.2fx", float64(base)/float64(res.Makespan)),
		)
	}
	return tbl, nil
}
