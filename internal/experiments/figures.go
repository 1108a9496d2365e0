package experiments

import (
	"fmt"

	"utlb/internal/parallel"
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

	rows, err := parallel.Map(len(apps)*len(sizes), func(i int) ([]string, error) {
		app := apps[i/len(sizes)]
		si := i % len(sizes)
		entries := sizes[si]
		tr, err := opts.traceFor(app)
		if err != nil {
			return nil, err
		}
		cfg := sim.DefaultConfig()
		cfg.CacheEntries = entries
		cfg.Seed = opts.Seed
		cfg.Recorder = opts.recorderFor(fmt.Sprintf("fig7/%s/%s", app, sizeLabel(entries)))
		res, err := sim.Run(tr, cfg)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s %d: %w", app, entries, err)
		}
		label := ""
		if si == 0 {
			label = app
		}
		pct := func(n int64) string {
			return fmt.Sprintf("%.1f", 100*float64(n)/float64(res.NIRefs))
		}
		return []string{label, sizeLabel(entries),
			pct(res.Compulsory), pct(res.Capacity), pct(res.Conflict),
			pct(res.NIMisses)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		tbl.AddRow(row...)
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
	tr, err := opts.traceFor("radix")
	if err != nil {
		return nil, nil, err
	}
	sizes := scaledSizes(opts)
	results, err := parallel.Map(len(sizes)*len(fig8Prefetches), func(i int) (sim.Result, error) {
		entries := sizes[i/len(fig8Prefetches)]
		prefetch := fig8Prefetches[i%len(fig8Prefetches)]
		cfg := sim.DefaultConfig()
		cfg.CacheEntries = entries
		cfg.Prefetch = prefetch
		// §6.4: "in order for prefetching to work well, translations
		// for contiguous application pages must be available during
		// a miss" — sequential pre-pinning (§6.5) provides them.
		cfg.Prepin = prefetch
		cfg.Seed = opts.Seed
		cfg.Recorder = opts.recorderFor(fmt.Sprintf("fig8/%s/pf%02d", sizeLabel(entries), prefetch))
		res, err := sim.Run(tr, cfg)
		if err != nil {
			return sim.Result{}, fmt.Errorf("fig8 %d/%d: %w", entries, prefetch, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for si, entries := range sizes {
		series := sizeLabel(entries) + " entries"
		for pi, prefetch := range fig8Prefetches {
			res := results[si*len(fig8Prefetches)+pi]
			missFig.Series(series).Add(float64(prefetch), res.NIMissRatio())
			costFig.Series(series).Add(float64(prefetch), res.AvgNICLookupCost().Micros())
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

	rows, err := parallel.Map(len(apps), func(i int) ([][]string, error) {
		app := apps[i]
		tr, err := opts.traceFor(app)
		if err != nil {
			return nil, err
		}
		// Shared UTLB-Cache run.
		cfg := sim.DefaultConfig()
		cfg.CacheEntries = totalEntries
		cfg.Seed = opts.Seed
		cfg.Recorder = opts.recorderFor("ablation-perprocess/" + app + "/shared")
		shared, err := sim.Run(tr, cfg)
		if err != nil {
			return nil, err
		}
		// Per-process run: the same SRAM split into one directly
		// indexed table per process.
		cfg.Mechanism = sim.PerProcess
		cfg.CacheEntries = perProcEntries
		cfg.IndexOffset = false
		cfg.Recorder = opts.recorderFor("ablation-perprocess/" + app + "/perproc")
		pp, err := sim.Run(tr, cfg)
		if err != nil {
			return nil, fmt.Errorf("per-process %s: %w", app, err)
		}
		return [][]string{
			{app, "shared-cache", fmt.Sprintf("%d", totalEntries),
				fmt.Sprintf("%.2f", shared.CheckMissRate()),
				fmt.Sprintf("%.2f", shared.UnpinRate()),
				fmt.Sprintf("%.1f", shared.HostTime.Micros()/float64(shared.Lookups))},
			{"", "per-process", fmt.Sprintf("%dx%d", workload.ProcsPerNode, perProcEntries),
				fmt.Sprintf("%.2f", pp.CheckMissRate()),
				fmt.Sprintf("%.2f", pp.UnpinRate()),
				fmt.Sprintf("%.1f", pp.HostTime.Micros()/float64(pp.Lookups))},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, pair := range rows {
		for _, row := range pair {
			tbl.AddRow(row...)
		}
	}
	return tbl, nil
}
