package experiments

import (
	"sync"

	"utlb/internal/sim"
	"utlb/internal/stats"
	"utlb/internal/trace"
	"utlb/internal/workload"
)

// AblationMultiprog studies the Shared UTLB-Cache under *independent*
// multiprogramming — the behaviour the paper's SPMD traces could not
// reveal (§7). Pairs of unrelated applications run interleaved on one
// node; the table reports the cache miss ratio of each application
// alone, the pair mixed, and the pair mixed without index offsetting,
// at the paper's default 8 K-entry direct-mapped cache.
func AblationMultiprog(opts Options) (*stats.Table, error) {
	pairs := [][2]string{
		{"fft", "barnes"},
		{"radix", "water-spatial"},
		{"raytrace", "volrend"},
	}
	if len(opts.Apps) == 2 {
		pairs = [][2]string{{opts.Apps[0], opts.Apps[1]}}
	}
	tbl := stats.NewTable(
		"Ablation: independent multiprogramming in the Shared UTLB-Cache (miss ratio; 8K direct-mapped)",
		"pair", "A alone", "B alone", "mixed", "mixed no-offset")

	cfg := opts.config()
	cfg.CacheEntries = scaledSizes(opts)[3] // 8K at full scale
	noOffset := cfg
	noOffset.IndexOffset = false
	// Each alone at half scale (matching its share of the mix).
	half := opts
	half.Scale = opts.scale() / 2

	var cells []cell
	for _, pair := range pairs {
		var specs []*workload.Spec
		for _, app := range pair {
			spec, err := workload.ByName(app)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
		// Two cells replay the mix; whichever worker asks first builds it.
		mixed := sync.OnceValues(func() (trace.Trace, error) {
			return workload.Multiprogram(specs, 0, opts.Seed, opts.scale())
		})
		label := "ablation-multiprog/" + pair[0] + "+" + pair[1]
		cells = append(cells,
			cell{label + "/a-alone", half.appTrace(pair[0], 0), cfg},
			cell{label + "/b-alone", half.appTrace(pair[1], 0), cfg},
			cell{label + "/mixed", mixed, cfg},
			cell{label + "/mixed-nooffset", mixed, noOffset})
	}
	rs, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for _, pair := range pairs {
		tbl.AddRow(append([]string{pair[0] + "+" + pair[1]},
			each(pop(&rs, 4), "%.2f", sim.Result.NIMissRatio)...)...)
	}
	return tbl, nil
}
