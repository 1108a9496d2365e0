package main

import "utlb/internal/sim"

// paperCell is one cell of the paper's Table 6: the measured average
// lookup cost, in microseconds, of one application at one cache size
// under one mechanism.
type paperCell struct {
	app     string
	entries int
	mech    sim.Mechanism
	micros  float64
}

// paperTable6 is Table 6 of the paper ("Average lookup cost
// comparison: UTLB vs. Intr"), copied from the paper column of
// EXPERIMENTS.md. These twelve cells are the only data the cost model
// is validated against; paper_err_pct says nothing about the other
// five applications or about configurations the paper did not time.
var paperTable6 = []paperCell{
	{"barnes", 1024, sim.UTLB, 2.6}, {"barnes", 1024, sim.Interrupt, 4.9},
	{"barnes", 4096, sim.UTLB, 2.5}, {"barnes", 4096, sim.Interrupt, 2.5},
	{"barnes", 16384, sim.UTLB, 2.5}, {"barnes", 16384, sim.Interrupt, 1.9},
	{"fft", 1024, sim.UTLB, 9.0}, {"fft", 1024, sim.Interrupt, 21.7},
	{"fft", 4096, sim.UTLB, 8.9}, {"fft", 4096, sim.Interrupt, 20.9},
	{"fft", 16384, sim.UTLB, 8.7}, {"fft", 16384, sim.Interrupt, 14.8},
}
