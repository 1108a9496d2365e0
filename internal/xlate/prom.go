package xlate

import (
	"io"
	"strconv"

	"utlb/internal/obs"
)

// WritePrometheus writes st in Prometheus text exposition format,
// one sample per shard plus pre-aggregated "all" totals. Output is
// byte-deterministic: shards in index order, metrics in fixed order.
// internal/serve appends this block to the simulation metrics on
// /metrics so the live translation service and the batch experiments
// share one scrape surface.
func WritePrometheus(w io.Writer, st Stats) error {
	p := obs.NewPromWriter(w)
	// family writes one sample per shard, then the service-wide value
	// under shard="all".
	family := func(name, help, typ string, all int64, of func(*ShardStats) int64) {
		p.Family(name, help, typ)
		for i := range st.PerShard {
			p.Int(of(&st.PerShard[i]), "shard", strconv.Itoa(st.PerShard[i].Shard))
		}
		p.Int(all, "shard", "all")
	}
	family("utlb_xlate_lookups_total", "Translation-service lookups by shard.", "counter",
		st.Total.Lookups, func(sh *ShardStats) int64 { return sh.Lookups })
	family("utlb_xlate_hits_total", "Translation-service lookup hits by shard.", "counter",
		st.Total.Hits, func(sh *ShardStats) int64 { return sh.Hits })
	family("utlb_xlate_misses_total", "Translation-service lookup misses by shard.", "counter",
		st.Total.Misses, func(sh *ShardStats) int64 { return sh.Misses })
	family("utlb_xlate_fills_total", "Translation-service entry installs by shard.", "counter",
		st.Total.Fills, func(sh *ShardStats) int64 { return sh.Fills })
	family("utlb_xlate_evictions_total", "Translation-service evictions by shard.", "counter",
		st.Total.Evictions, func(sh *ShardStats) int64 { return sh.Evictions })
	family("utlb_xlate_invalidations_total", "Translation-service invalidations by shard.", "counter",
		st.Total.Invalidations, func(sh *ShardStats) int64 { return sh.Invalidations })
	family("utlb_xlate_occupancy", "Valid translation entries by shard.", "gauge",
		st.Total.Occupancy, func(sh *ShardStats) int64 { return sh.Occupancy })
	family("utlb_xlate_capacity", "Configured translation entries by shard.", "gauge",
		st.Capacity, func(sh *ShardStats) int64 { return sh.Capacity })
	return p.Flush()
}
