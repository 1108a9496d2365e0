package experiments

import (
	"fmt"

	"utlb/internal/core"
	"utlb/internal/parallel"
	"utlb/internal/sim"
	"utlb/internal/stats"
	"utlb/internal/workload"
)

// cacheSizes is the 1K-16K sweep of Tables 4, 5 and 8.
var cacheSizes = []int{1024, 2048, 4096, 8192, 16384}

// onFirst labels only the first row of a group.
func onFirst(i int, label string) string {
	if i > 0 {
		return ""
	}
	return label
}

func sizeLabel(entries int) string {
	if entries >= 1024 {
		return fmt.Sprintf("%dK", entries/1024)
	}
	return fmt.Sprintf("%d", entries)
}

// scaledSizes shrinks the cache sweep along with the workload so
// reduced-scale runs keep the same footprint-to-cache ratios.
func scaledSizes(opts Options) []int {
	s := opts.scale()
	if s >= 1 {
		return cacheSizes
	}
	out := make([]int, len(cacheSizes))
	for i, e := range cacheSizes {
		v := 16
		for float64(v) < float64(e)*s {
			v *= 2
		}
		out[i] = v
	}
	return out
}

// Table3 reports each application's problem size, communication
// memory footprint and translation-lookup count, measured from the
// generated traces — reproducing "Table 3".
func Table3(opts Options) (*stats.Table, error) {
	tbl := stats.NewTable(
		"Table 3: application problem size, communication footprint, lookups",
		"application", "problem size", "footprint (4KB pages)", "# translation lookups")
	apps := opts.apps()
	rows, err := parallel.Map(len(apps), func(i int) ([]string, error) {
		app := apps[i]
		tr, err := opts.appTrace(app, 0)()
		if err != nil {
			return nil, err
		}
		spec, err := workload.ByName(app)
		if err != nil {
			return nil, err
		}
		return []string{app, spec.ProblemSize,
			fmt.Sprintf("%d", tr.Footprint()),
			fmt.Sprintf("%d", tr.Lookups())}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// comparisonTable renders the Table 4/5 layout: per cache size and
// application, check misses / NI misses / unpins per lookup for each
// mechanism of versus, per-node averaged as the paper reports (§6.2).
func comparisonTable(opts Options, expName, title string, pinLimitPages int) (*stats.Table, error) {
	apps, sizes, nodes := opts.apps(), scaledSizes(opts), opts.nodes()
	header := []string{"cache", "characteristic (per lookup)"}
	for _, app := range apps {
		header = versusNames(header, app+" ", "")
	}
	tbl := stats.NewTable(title, header...)

	var cells []cell
	for _, entries := range sizes {
		for _, app := range apps {
			for _, m := range versus {
				for n := 0; n < nodes; n++ {
					cfg := opts.config()
					cfg.Mechanism = m
					cfg.CacheEntries = entries
					cfg.PinLimitPages = pinLimitPages
					cells = append(cells, cell{
						fmt.Sprintf("%s/%s/%s/%s/n%d", expName, app, sizeLabel(entries), tag(m), n),
						opts.appTrace(app, n), cfg})
				}
			}
		}
	}
	rs, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}

	for _, entries := range sizes {
		rows := [3][]string{
			{sizeLabel(entries), "check misses"},
			{"", "NI misses"},
			{"", "unpins"},
		}
		for range apps {
			for _, m := range versus {
				perNode := pop(&rs, nodes)
				check := "-" // the baseline has no user-level check
				if m != sim.Interrupt {
					check = fmt.Sprintf("%.2f", nodeAvg(perNode, sim.Result.CheckMissRate))
				}
				rows[0] = append(rows[0], check)
				rows[1] = append(rows[1], fmt.Sprintf("%.2f", nodeAvg(perNode, sim.Result.NIMissRate)))
				rows[2] = append(rows[2], fmt.Sprintf("%.2f", nodeAvg(perNode, sim.Result.UnpinRate)))
			}
		}
		for _, row := range rows {
			tbl.AddRow(row...)
		}
	}
	return tbl, nil
}

// Table4 compares UTLB against the interrupt baseline with infinite
// host memory — reproducing "Table 4: Average translation overhead
// breakdown: UTLB vs. Intr (infinite host memory, direct-mapped
// translation cache with cache index offsetting, and no prefetch)".
func Table4(opts Options) (*stats.Table, error) {
	return comparisonTable(opts, "table4",
		"Table 4: UTLB vs Intr per-lookup overheads (infinite host memory, direct-mapped+offset, no prefetch)",
		0)
}

// Table5 repeats Table 4 under a 4 MB (1024-page) per-process pin
// quota — reproducing "Table 5".
func Table5(opts Options) (*stats.Table, error) {
	return comparisonTable(opts, "table5",
		"Table 5: UTLB vs Intr per-lookup overheads (4 MB host memory per process, direct-mapped+offset, no prefetch)",
		scaleLimit(1024, opts))
}

// scaleLimit shrinks a pin quota along with the workload scale.
func scaleLimit(pages int, opts Options) int {
	return max(8, int(float64(pages)*opts.scale()))
}

// Table6 reports the measured average translation lookup cost for
// Barnes and FFT at 1K/4K/16K cache entries — reproducing "Table 6:
// Average lookup cost comparison: UTLB vs. Intr."
func Table6(opts Options) (*stats.Table, error) {
	apps := []string{"barnes", "fft"}
	header := []string{"cache entries"}
	for _, app := range apps {
		header = versusNames(header, app+" ", "")
	}
	tbl := stats.NewTable(
		"Table 6: average lookup cost, UTLB vs Intr (us; infinite host memory, no prefetch, index offsetting)",
		header...)
	all := scaledSizes(opts)
	sizes := []int{all[0], all[2], all[4]}

	var cells []cell
	for _, entries := range sizes {
		for _, app := range apps {
			for _, m := range versus {
				cfg := opts.config()
				cfg.Mechanism = m
				cfg.CacheEntries = entries
				cells = append(cells, cell{
					fmt.Sprintf("table6/%s/%s/%s", app, sizeLabel(entries), tag(m)),
					opts.appTrace(app, 0), cfg})
			}
		}
	}
	rs, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for _, entries := range sizes {
		tbl.AddRow(append([]string{sizeLabel(entries)},
			each(pop(&rs, len(apps)*len(versus)), "%.1f", lookupMicros)...)...)
	}
	return tbl, nil
}

// Table7 compares one-page pinning against 16-page sequential
// pre-pinning under a 16 MB pin quota, reporting amortized pin and
// unpin cost per lookup — reproducing "Table 7: Amortized pinning and
// unpinning for different page-pinning strategy."
func Table7(opts Options) (*stats.Table, error) {
	apps := []string{"barnes", "radix", "raytrace", "water-spatial", "fft", "lu"}
	if len(opts.Apps) > 0 {
		apps = opts.Apps
	}
	header := append([]string{"cost", "pages"}, apps...)
	tbl := stats.NewTable(
		"Table 7: amortized pin/unpin cost per lookup (us; 16 MB pin limit per process)",
		header...)
	limit := scaleLimit(4096, opts) // 16 MB of 4 KB pages per process

	// One run per (prepin, app) serves both its pin and its unpin row.
	prepins := []int{1, 16}
	cfg := opts.config()
	cfg.PinLimitPages = limit
	cfg.CacheEntries = scaledSizes(opts)[3] // the default 8K, scaled
	var cells []cell
	for _, prepin := range prepins {
		cfg.Prepin = prepin
		for _, app := range apps {
			cells = append(cells, cell{fmt.Sprintf("table7/%s/prepin%d", app, prepin), opts.appTrace(app, 0), cfg})
		}
	}
	rs, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	var pins, unpins [][]string
	for _, prepin := range prepins {
		pin := []string{"pin", fmt.Sprintf("%d", prepin)}
		unpin := []string{"unpin", fmt.Sprintf("%d", prepin)}
		for _, res := range pop(&rs, len(apps)) {
			pin = append(pin, fmt.Sprintf("%.1f", res.AmortizedPinCost().Micros()))
			unpin = append(unpin, fmt.Sprintf("%.1f", res.AmortizedUnpinCost().Micros()))
		}
		pins, unpins = append(pins, pin), append(unpins, unpin)
	}
	for _, row := range append(pins, unpins...) {
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// Table8 sweeps cache size against associativity (direct-mapped with
// offsetting, 2-way, 4-way, and direct-mapped without offsetting) and
// reports overall Shared UTLB-Cache miss rates — reproducing "Table 8".
func Table8(opts Options) (*stats.Table, error) {
	assocs := []struct {
		label  string
		ways   int
		offset bool
	}{
		{"direct", 1, true},
		{"2-way", 2, true},
		{"4-way", 4, true},
		{"direct-nohash", 1, false},
	}
	apps, sizes, nodes := opts.apps(), scaledSizes(opts), opts.nodes()
	header := append([]string{"cache", "associativity"}, apps...)
	tbl := stats.NewTable(
		"Table 8: overall miss rates in Shared UTLB-Cache (infinite host memory, no prefetch, index offsetting except direct-nohash)",
		header...)

	var cells []cell
	for _, entries := range sizes {
		for _, a := range assocs {
			for _, app := range apps {
				for n := 0; n < nodes; n++ {
					cfg := opts.config()
					cfg.CacheEntries = entries
					cfg.Ways = a.ways
					cfg.IndexOffset = a.offset
					cells = append(cells, cell{
						fmt.Sprintf("table8/%s/%s/%s/n%d", app, a.label, sizeLabel(entries), n),
						opts.appTrace(app, n), cfg})
				}
			}
		}
	}
	rs, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}

	for _, entries := range sizes {
		for ai, a := range assocs {
			row := []string{onFirst(ai, sizeLabel(entries)), a.label}
			for range apps {
				row = append(row, fmt.Sprintf("%.2f", nodeAvg(pop(&rs, nodes), sim.Result.NIMissRatio)))
			}
			tbl.AddRow(row...)
		}
	}
	return tbl, nil
}

// AblationPolicies sweeps the five user-level replacement policies of
// §3.4 under memory pressure — the study the paper leaves as future
// work ("we only used LRU policy in this study").
func AblationPolicies(opts Options) (*stats.Table, error) {
	apps := opts.apps()
	tbl := stats.NewTable(
		"Ablation: replacement policies under a 4 MB pin quota (unpins per lookup / avg lookup cost us)",
		append([]string{"policy"}, apps...)...)
	limit := scaleLimit(1024, opts)
	policies := []core.PolicyKind{core.LRU, core.MRU, core.LFU, core.MFU, core.Random}

	cfg := opts.config()
	cfg.PinLimitPages = limit
	cfg.CacheEntries = scaledSizes(opts)[3] // the default 8K, scaled
	var cells []cell
	for _, pol := range policies {
		cfg.Policy = pol
		for _, app := range apps {
			cells = append(cells, cell{fmt.Sprintf("ablation-policies/%s/%s", pol, app), opts.appTrace(app, 0), cfg})
		}
	}
	rs, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for _, pol := range policies {
		row := []string{pol.String()}
		for _, res := range pop(&rs, len(apps)) {
			row = append(row, fmt.Sprintf("%.2f/%.1f", res.UnpinRate(), res.AvgLookupCost().Micros()))
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}
