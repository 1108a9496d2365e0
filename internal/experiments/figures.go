package experiments

import (
	"fmt"

	"utlb/internal/sim"
	"utlb/internal/stats"
	"utlb/internal/workload"
)

// Fig7 breaks down translation-cache misses into compulsory, capacity
// and conflict components per application and cache size — reproducing
// "Figure 7: Breakdown of translation cache miss rates for 1K-16K
// cache entries (with infinite host memory and no prefetch)". The
// components are percentages of NI references, matching the paper's
// stacked-bar y-axis.
func Fig7(opts Options) (*stats.Table, error) {
	tbl := stats.NewTable(
		"Figure 7: miss-rate breakdown, % of NI references (infinite host memory, no prefetch)",
		"application", "cache", "compulsory", "capacity", "conflict", "total")
	apps := opts.apps()
	all := scaledSizes(opts)
	sizes := []int{all[0], all[2], all[3], all[4]} // 1K, 4K, 8K, 16K

	var cells []cell
	for _, app := range apps {
		for _, entries := range sizes {
			cfg := opts.config()
			cfg.CacheEntries = entries
			cells = append(cells, cell{fmt.Sprintf("fig7/%s/%s", app, sizeLabel(entries)), opts.appTrace(app, 0), cfg})
		}
	}
	rs, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for _, app := range apps {
		for si, res := range pop(&rs, len(sizes)) {
			pct := func(n int64) string {
				return fmt.Sprintf("%.1f", 100*float64(n)/float64(res.NIRefs))
			}
			tbl.AddRow(onFirst(si, app), sizeLabel(sizes[si]),
				pct(res.Compulsory), pct(res.Capacity), pct(res.Conflict), pct(res.NIMisses))
		}
	}
	return tbl, nil
}

// fig8Prefetches is the prefetch-width sweep of Figure 8.
var fig8Prefetches = []int{1, 4, 8, 12, 16, 20, 24, 28, 32}

// Fig8 sweeps the prefetch width on Radix for each cache size and
// reports both the overall miss rate and the average NIC lookup cost —
// reproducing "Figure 8: Prefetching effect in the translation cache
// (RADIX with infinite host memory and a direct-mapped cache)".
func Fig8(opts Options) (*stats.Figure, *stats.Figure, error) {
	missFig := stats.NewFigure(
		"Figure 8a: cache miss rate vs prefetch size (radix, infinite memory, direct-mapped)",
		"entries fetched per miss", "miss rate")
	costFig := stats.NewFigure(
		"Figure 8b: average NIC lookup cost vs prefetch size (radix)",
		"entries fetched per miss", "lookup cost (us)")
	sizes := scaledSizes(opts)
	var cells []cell
	for _, entries := range sizes {
		for _, prefetch := range fig8Prefetches {
			cfg := opts.config()
			cfg.CacheEntries = entries
			cfg.Prefetch = prefetch
			// §6.4: "in order for prefetching to work well, translations
			// for contiguous application pages must be available during
			// a miss" — sequential pre-pinning (§6.5) provides them.
			cfg.Prepin = prefetch
			cells = append(cells, cell{fmt.Sprintf("fig8/%s/pf%02d", sizeLabel(entries), prefetch), opts.appTrace("radix", 0), cfg})
		}
	}
	rs, err := opts.runCells(cells)
	if err != nil {
		return nil, nil, err
	}
	for _, entries := range sizes {
		series := sizeLabel(entries) + " entries"
		for pi, res := range pop(&rs, len(fig8Prefetches)) {
			missFig.Series(series).Add(float64(fig8Prefetches[pi]), res.NIMissRatio())
			costFig.Series(series).Add(float64(fig8Prefetches[pi]), res.AvgNICLookupCost().Micros())
		}
	}
	return missFig, costFig, nil
}

// AblationPerProcess compares the Per-process UTLB (§3.1, static
// tables in NIC SRAM) against the Hierarchical-UTLB with a Shared
// UTLB-Cache (§3.2-3.3) under multiprogramming — the comparison the
// paper lists as an open limitation ("we have not compared the
// per-process UTLB with Shared UTLB-Cache approach").
func AblationPerProcess(opts Options) (*stats.Table, error) {
	tbl := stats.NewTable(
		"Ablation: per-process UTLB vs Shared UTLB-Cache (per lookup)",
		"application", "design", "table/cache entries", "check misses", "unpins", "host time us")
	apps := opts.apps()
	// Shared budget: the paper's 32 KB of SRAM = 8K entries total,
	// scaled with the workload.
	totalEntries := scaledSizes(opts)[3]
	perProcEntries := totalEntries / workload.ProcsPerNode

	shared := opts.config()
	shared.CacheEntries = totalEntries
	// The same SRAM split into one directly indexed table per process.
	perProc := shared
	perProc.Mechanism = sim.PerProcess
	perProc.CacheEntries = perProcEntries
	perProc.IndexOffset = false
	designs := []struct {
		label, name, entries string
		cfg                  sim.Config
	}{
		{"shared", "shared-cache", fmt.Sprintf("%d", totalEntries), shared},
		{"perproc", "per-process", fmt.Sprintf("%dx%d", workload.ProcsPerNode, perProcEntries), perProc},
	}

	var cells []cell
	for _, app := range apps {
		for _, d := range designs {
			cells = append(cells, cell{"ablation-perprocess/" + app + "/" + d.label, opts.appTrace(app, 0), d.cfg})
		}
	}
	rs, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for _, app := range apps {
		for di, res := range pop(&rs, len(designs)) {
			tbl.AddRow(onFirst(di, app), designs[di].name, designs[di].entries,
				fmt.Sprintf("%.2f", res.CheckMissRate()),
				fmt.Sprintf("%.2f", res.UnpinRate()),
				fmt.Sprintf("%.1f", res.HostTime.Micros()/float64(res.Lookups)))
		}
	}
	return tbl, nil
}
