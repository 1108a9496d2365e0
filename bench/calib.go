package main

import "math"

// The machine-speed index.
//
// On the shared 2-CPU reference box identical code runs up to 20 %
// slower for tens of seconds at a time, and the slow spells outlast a
// run, so no estimator inside a run can see past them. They are a
// property of the machine, not of the program: two fixed kernels —
// one register-only, one missing the cache on every step — timed
// between the repetitions track every workload's slow spells with a
// correlation of 0.9–0.98 over 10-second windows, and dividing a
// workload's time by the geometric mean of the kernels' slowdowns
// cut the run-to-run spread from 14–20 % to 2–7 % on all six
// workloads (240 s of interleaved slices, twenty windows).
//
// So every wall- and CPU-time metric is reported at index 1.0: times
// are divided by the run's index, rates multiplied by it. Counts and
// simulated time are untouched. The index is a property of bench/ and
// the machine only — a change to the program under test cannot move
// it — and the raw reading is printed beside every normalised value.
const (
	calALUIters = 4_600_000
	calMemIters = 1_150_000
	// Each kernel variant's time on the reference box in a quiet spell
	// (the p10 of 600 samples was 4.95-5.25 ms for the four).
	calNominalNs = 5e6
	calMemWords  = 1 << 19 // 4 MB: past the L2, inside a quiet L3
)

// calThreads is how many copies of a kernel the two-thread samples run
// at once: the workloads keep both CPUs of the reference box busy, so
// half the samples do too.
const calThreads = 2

var (
	calSinks  [calThreads][8]uint64 // a cache line apart
	calTables [calThreads][]uint64
)

func init() {
	for g := range calTables {
		calTables[g] = make([]uint64, calMemWords)
	}
}

// calALU is splitmix64 in registers: it slows with the clock and with
// a busy sibling thread, not with the memory system.
func calALU(g int) {
	x, acc := uint64(12345+g), uint64(0)
	for i := 0; i < calALUIters; i++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		acc += z ^ (z >> 31)
	}
	calSinks[g][0] = acc
}

// calMem is a random walk with a write per step: it slows when
// neighbours fill the shared cache and the memory bus.
func calMem(g int) {
	x, acc, table := uint64(777+g), uint64(0), calTables[g]
	for i := 0; i < calMemIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx := (x >> 33) & (calMemWords - 1)
		table[idx] += x
		acc += table[(idx*7)&(calMemWords-1)]
	}
	calSinks[g][0] = acc
}

// calibrator collects kernel timings over a run: each kernel alone,
// and each on calThreads threads at once.
type calibrator struct {
	samples [4][]float64
}

// sample times every kernel variant twice. Called between
// repetitions, never inside a timed region.
func (c *calibrator) sample() {
	for i := 0; i < 2; i++ {
		for v, kernel := range []func(int){calALU, calMem} {
			c.samples[v] = append(c.samples[v], timeNs(func() { kernel(0) }))
			c.samples[2+v] = append(c.samples[2+v], timeNs(func() { runClients(calThreads, kernel) }))
		}
	}
}

// index is the run's machine-speed index: how much slower than the
// quiet reference box the kernels ran — the geometric mean over the
// four variants of each one's quiet quartile, the estimator the metrics
// use. Above 1 the machine was slow.
func (c *calibrator) index() float64 {
	if len(c.samples[0]) == 0 {
		return 1
	}
	product := 1.0
	for _, s := range c.samples {
		product *= quietQuartile(s, true) / calNominalNs
	}
	return math.Pow(product, 1.0/float64(len(c.samples)))
}
