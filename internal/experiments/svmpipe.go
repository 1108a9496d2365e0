package experiments

import (
	"fmt"
	"strings"

	"utlb/internal/parallel"
	"utlb/internal/sim"
	"utlb/internal/stats"
	"utlb/internal/svm"
	"utlb/internal/trace"
)

// SVMPipeline reproduces the paper's methodology end to end on live
// kernels instead of synthetic generators: run SPMD programs under the
// home-based LRC SVM protocol on the simulated cluster (§6's trace
// source), capture the VMMC-level communication trace, and drive the
// trace simulator with it, comparing UTLB against the interrupt
// baseline.
func SVMPipeline(opts Options) (*stats.Table, error) {
	scale := opts.scale()
	size := func(full int) int { return max(64, int(float64(full)*scale)) }
	kernels := []struct {
		name string
		run  func(s *svm.System) error
	}{
		{"jacobi", func(s *svm.System) error { return svm.RunJacobi(s, size(16384), 6) }},
		{"transpose", func(s *svm.System) error {
			n := 64
			if scale < 0.1 {
				n = 24
			}
			return svm.RunTranspose(s, n)
		}},
		{"taskfarm", func(s *svm.System) error { return svm.RunTaskFarm(s, size(2000)) }},
		{"sumreduce", func(s *svm.System) error {
			_, err := svm.RunSumReduce(s, size(8000))
			return err
		}},
	}

	header := versusNames([]string{"kernel", "trace ops", "footprint", versus[0].String() + " miss rate"}, "", " unpins")
	tbl := stats.NewTable(
		"SVM pipeline: live kernels -> captured trace -> trace-driven comparison (1K-entry cache)",
		append(header, strings.Join(versusNames(nil, "", ""), "/")+" lookup cost us")...)

	// Each kernel runs on its own simulated cluster, so the capture
	// stage fans out per kernel on the worker pool.
	traces, err := parallel.Map(len(kernels), func(ki int) (trace.Trace, error) {
		sys, err := svm.New(svm.Config{Peers: 4, RegionPages: 64})
		if err != nil {
			return nil, err
		}
		if err := kernels[ki].run(sys); err != nil {
			return nil, fmt.Errorf("svm pipeline %s: %w", kernels[ki].name, err)
		}
		return sys.Trace(), nil
	})
	if err != nil {
		return nil, err
	}
	var cells []cell
	for ki, k := range kernels {
		for _, m := range versus {
			cfg := opts.config()
			cfg.Mechanism = m
			cfg.CacheEntries = 1024
			cells = append(cells, cell{"svm-pipeline/" + k.name + "/" + tag(m), supplied(traces[ki]), cfg})
		}
	}
	rs, err := opts.runCells(cells)
	if err != nil {
		return nil, err
	}
	for ki, k := range kernels {
		pair := pop(&rs, len(versus))
		row := []string{k.name,
			fmt.Sprintf("%d", traces[ki].Lookups()),
			fmt.Sprintf("%d", traces[ki].Footprint()),
			fmt.Sprintf("%.2f", pair[0].NIMissRate())}
		row = append(row, each(pair, "%.2f", sim.Result.UnpinRate)...)
		tbl.AddRow(append(row, strings.Join(each(pair, "%.1f", lookupMicros), "/"))...)
	}
	return tbl, nil
}
