package experiments

import (
	"fmt"
	"strings"

	"utlb/internal/obs"
	"utlb/internal/sim"
	"utlb/internal/stats"
	"utlb/internal/trace"
)

// CompareTrace runs the paper's head-to-head comparison (UTLB vs the
// interrupt baseline, Table 4 layout) on an arbitrary trace — a file
// captured elsewhere, or one recorded from the SVM layer. Cache sizes
// sweep 1K-16K entries as in the paper; pinLimitPages of 0 means
// unconstrained memory. col, when non-nil, collects each run's event
// timeline.
func CompareTrace(tr trace.Trace, seed int64, pinLimitPages int, col *obs.Collector) (*stats.Table, error) {
	opts := Options{Seed: seed, Obs: col}
	header := []string{"cache", versus[0].String() + " check misses", "NI misses (both)"}
	header = versusNames(versusNames(header, "", " unpins"), "", " lookup us")
	tbl := stats.NewTable(
		fmt.Sprintf("UTLB vs Intr on supplied trace (%d lookups, %d-page footprint, pin limit %d)",
			tr.Lookups(), tr.Footprint(), pinLimitPages),
		header...)

	var cells []cell
	for _, entries := range cacheSizes {
		for _, m := range versus {
			cfg := opts.config()
			cfg.Mechanism = m
			cfg.CacheEntries = entries
			cfg.PinLimitPages = pinLimitPages
			cells = append(cells, cell{fmt.Sprintf("compare/%s/%s", sizeLabel(entries), tag(m)), supplied(tr), cfg})
		}
	}
	rs, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for _, entries := range cacheSizes {
		pair := pop(&rs, len(versus))
		row := []string{sizeLabel(entries),
			fmt.Sprintf("%.2f", pair[0].CheckMissRate()),
			strings.Join(each(pair, "%.2f", sim.Result.NIMissRate), "/")}
		row = append(row, each(pair, "%.2f", sim.Result.UnpinRate)...)
		tbl.AddRow(append(row, each(pair, "%.1f", lookupMicros)...)...)
	}
	return tbl, nil
}
