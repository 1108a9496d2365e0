GO ?= go

# Where obs-smoke, chaos, overlap-soak and the profile-* targets leave their
# outputs; CI uploads parts of this directory as build artifacts.
ARTIFACTS ?= artifacts

.PHONY: all check vet loc prose build test race fuzz-smoke bench-smoke profile-sim profile-rec profile-svc profile-overlap obs-smoke chaos overlap-soak clean

all: check

# The full local gate: what CI runs, in order.
check: vet build test race fuzz-smoke bench-smoke obs-smoke chaos overlap-soak

# go vet, and gofmt as a gate: any file gofmt would rewrite fails the
# target (testdata/ is exempt — a fixture may be misformatted on
# purpose; .bench_build/ holds the benchmark's module cache).
vet:
	$(GO) vet ./...
	@unformatted=$$(find . -name '*.go' ! -path '*/testdata/*' ! -path './.bench_build/*' ! -path './$(ARTIFACTS)/*' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l (run gofmt -w on these):"; echo "$$unformatted"; exit 1; fi

# The size criterion of a simplicity PR, measured one way: non-test Go
# lines per package and in total. bench/ (frozen to non-benchmark PRs),
# testdata/ fixtures and build leftovers are not the program.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' \
		! -path './.bench_build/*' ! -path './$(ARTIFACTS)/*' \
		| xargs awk '{ d = FILENAME; sub("/[^/]*$$", "", d); n[d]++ } END { for (d in n) printf "%7d %s\n", n[d], d }' \
		| sort -k2 | awk '{ print; t += $$1 } END { printf "%7d total\n", t }'

# The prose beside it, in bytes: the design notes, the readme, the
# experiment record, the change log and the performance log.
prose:
	@wc -c DESIGN.md README.md EXPERIMENTS.md CHANGES.md docs/perf-log.md

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The allocation budgets (Test*AllocBudget, Test*AllocsIndependentOfEvents)
# count the race detector's own allocations against the code under test,
# so they belong to the non-race run only: `make test` runs every one
# of them. This is the one -race pass over internal/{telemetry,xlate,serve}
# in `make check`. The service's concurrency checks (lock-free readers
# against writers included), the sink's readers against its traffic
# (the Sink.mu -> shard writer order) and the sink's own recorders
# against its readers (all under Sink.mu) run three more times: each
# run is a different interleaving.
race:
	$(GO) test -race -skip 'AllocBudget|AllocsIndependentOfEvents' ./...
	$(GO) test -race -count=3 -run 'TestConcurrentHistory|TestLookupManyMatchesSingleLookups|TestConcurrentDisjointShadows|TestTelemetryReadersDuringTraffic|TestConcurrentRecording|TestMRUStreamLeavesWriteSequence|TestWriterWaitsForReaders|TestReadersNeverSeeHalfAWrite' ./internal/xlate ./internal/telemetry

# Fuzz smoke: `make test` runs only the fuzzers' seed corpora, so a
# codec change would otherwise meet no new input. Each fuzzer gets
# FUZZTIME of -fuzz (5 s in `make check` and CI; `make fuzz-smoke
# FUZZTIME=30s` after touching the codec or the service), one at a
# time (go test fuzzes one target per run): the /api/xlate/* codec's four against their oracles
# (xlate_oracle_test.go), the service's against its shadow map, the
# simulator's page-indexed table against its shadow map
# (pagemap_test.go), the stack-distance pass against the old splice
# stack and a naive recount (analyze_test.go), the Chrome exporter
# against its fmt-based oracle (chrome_test.go), the analysis JSON
# writer against json.MarshalIndent (json_test.go), the pin-status bit
# vector's word-at-a-time Set, Clear and Check against a per-bit
# reference (bitvector_test.go), and the simulator's long traces
# against its cost-free model (oracle_test.go).
# A finding fails the target and is written under the package's
# testdata/fuzz/ as a new seed.
FUZZTIME ?= 5s
fuzz-smoke:
	for f in FuzzScanKeys FuzzQueryParam FuzzLookupReply FuzzParseBody; do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) ./internal/serve || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzServiceVsShadow$$' -fuzztime $(FUZZTIME) ./internal/xlate
	$(GO) test -run '^$$' -fuzz '^FuzzDenseVsShadow$$' -fuzztime $(FUZZTIME) ./internal/tlbcache
	$(GO) test -run '^$$' -fuzz '^FuzzStackDistances$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzChromeTrace$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzWriteJSON$$' -fuzztime $(FUZZTIME) ./internal/obs/analyze
	$(GO) test -run '^$$' -fuzz '^FuzzBitVector$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSimVsOracle$$' -fuzztime $(FUZZTIME) ./internal/sim

# The repository's benchmark (bench/, a module of its own; run for real
# with `bash bench/run.sh`) imports internal/* from outside, so an API
# change there breaks it without breaking `go build ./...`. Its own
# tests are the ~3 s -quick pass over all six workloads plus the
# checker's negative tests.
bench-smoke:
	cd bench && $(GO) test ./...

# CPU profile of the simulator core: sim's BenchmarkRunWith/paper (the
# bench's sim_paper request mix — the seven Table-3 applications at
# paper scale × UTLB and Intr, 1 K-entry cache — on one warm
# RunScratch, so trace generation and preparation stay out of it),
# with the top of the cumulative listing printed. The profile stays in
# $(ARTIFACTS)/profile for `go tool pprof`; CI uploads it, so the next
# performance issue starts from a profile rather than a guess.
profile-sim:
	mkdir -p $(ARTIFACTS)/profile
	$(GO) test -run '^$$' -bench '^BenchmarkRunWith$$/^paper$$' -benchtime 3s \
		-o $(ARTIFACTS)/profile/sim.test -cpuprofile $(ARTIFACTS)/profile/sim.prof ./internal/sim >/dev/null
	$(GO) tool pprof -top -cum $(ARTIFACTS)/profile/sim.test $(ARTIFACTS)/profile/sim.prof 2>/dev/null | head -20

# CPU and heap profiles of the recorded-run path: Table 6 at a quarter
# of paper scale, recorded, with analysis and the Chrome export (the
# bench's sim_recorded request, through the CLI), and the top 20 of the
# cumulative CPU listing and of the cumulative allocated-bytes listing
# printed. A recorded run should allocate its events' chunks
# (obs.Buffer.Record) and little else that grows with them; CI uploads
# both profiles next to profile-sim's, so the next issue on this path
# starts from a profile too. Last, obs's BenchmarkWriteChromeTrace line:
# the Chrome export alone, ns per event of one recorded fft/Intr run.
profile-rec:
	mkdir -p $(ARTIFACTS)/profile
	$(GO) build -o $(ARTIFACTS)/profile/utlbsim ./cmd/utlbsim
	$(ARTIFACTS)/profile/utlbsim -exp t6 -scale 0.25 -parallel 1 \
		-trace-out $(ARTIFACTS)/profile/rec.trace.json -analyze-out $(ARTIFACTS)/profile/rec.analyze.json \
		-cpuprofile $(ARTIFACTS)/profile/rec.prof -memprofile $(ARTIFACTS)/profile/rec.mprof >/dev/null
	rm -f $(ARTIFACTS)/profile/rec.trace.json
	$(GO) tool pprof -top -cum $(ARTIFACTS)/profile/utlbsim $(ARTIFACTS)/profile/rec.prof 2>/dev/null | head -20
	$(GO) tool pprof -sample_index=alloc_space -top -cum $(ARTIFACTS)/profile/utlbsim $(ARTIFACTS)/profile/rec.mprof 2>/dev/null | head -20
	$(GO) test -run '^$$' -bench '^BenchmarkWriteChromeTrace$$' -benchtime 50x ./internal/obs | grep '^Benchmark'

# CPU profiles of the translation service's two paths, each with the
# top of its cumulative listing printed: the miss-to-fill path, xlate's
# BenchmarkLookupFillMixed (the bench's svc_inproc_mixed step: 64-key
# LookupMany, InsertMany of the misses, over twice the default
# service's capacity, one goroutine per CPU), in svc.prof; and the
# all-hit read path, BenchmarkLookupManyZipf/g=2 (svc_inproc_lookup's
# zipf stream from two goroutines, almost every hit on an MRU line, so
# answered without a shard lock), in svc_read.prof. CI uploads them
# next to the simulator's two.
profile-svc:
	mkdir -p $(ARTIFACTS)/profile
	$(GO) test -run '^$$' -bench '^BenchmarkLookupFillMixed$$' -benchtime 3s \
		-o $(ARTIFACTS)/profile/xlate.test -cpuprofile $(ARTIFACTS)/profile/svc.prof ./internal/xlate >/dev/null
	$(GO) tool pprof -top -cum $(ARTIFACTS)/profile/xlate.test $(ARTIFACTS)/profile/svc.prof 2>/dev/null | head -20
	$(GO) test -run '^$$' -bench '^BenchmarkLookupManyZipf$$/^g=2$$' -benchtime 3s \
		-o $(ARTIFACTS)/profile/xlate.test -cpuprofile $(ARTIFACTS)/profile/svc_read.prof ./internal/xlate >/dev/null
	$(GO) tool pprof -top -cum $(ARTIFACTS)/profile/xlate.test $(ARTIFACTS)/profile/svc_read.prof 2>/dev/null | head -20

# CPU profile of the simulator's other timing path: sim's
# BenchmarkRunWith/overlap (the bench's sim_overlap request — one
# BulkTransfer run through the event engine on 2 DMA channels, batch
# and prefetch width 8 — on one warm RunScratch), with the top of the
# cumulative listing printed. CI uploads it next to the other three.
profile-overlap:
	mkdir -p $(ARTIFACTS)/profile
	$(GO) test -run '^$$' -bench '^BenchmarkRunWith$$/^overlap$$' -benchtime 3s \
		-o $(ARTIFACTS)/profile/sim.test -cpuprofile $(ARTIFACTS)/profile/overlap.prof ./internal/sim >/dev/null
	$(GO) tool pprof -top -cum $(ARTIFACTS)/profile/sim.test $(ARTIFACTS)/profile/overlap.prof 2>/dev/null | head -20

# Observability smoke: an end-to-end recorded run through the CLI,
# checked for determinism across sequential and parallel execution, and
# fed back through traceinfo (the exporter golden-file tests run in
# `make test`). Artifacts stay in $(ARTIFACTS)/obs-smoke so CI can
# upload the trace, metrics and analysis for inspection.
obs-smoke:
	rm -rf $(ARTIFACTS)/obs-smoke && mkdir -p $(ARTIFACTS)/obs-smoke
	$(GO) run ./cmd/utlbsim -exp t6 -scale 0.05 -parallel 1 \
		-trace-out $(ARTIFACTS)/obs-smoke/run1.json -metrics-out $(ARTIFACTS)/obs-smoke/m1.txt \
		-analyze-out $(ARTIFACTS)/obs-smoke/analyze1.json >/dev/null
	$(GO) run ./cmd/utlbsim -exp t6 -scale 0.05 -parallel 8 \
		-trace-out $(ARTIFACTS)/obs-smoke/run8.json -metrics-out $(ARTIFACTS)/obs-smoke/m8.txt \
		-analyze-out $(ARTIFACTS)/obs-smoke/analyze8.json >/dev/null
	diff $(ARTIFACTS)/obs-smoke/run1.json $(ARTIFACTS)/obs-smoke/run8.json
	diff $(ARTIFACTS)/obs-smoke/m1.txt $(ARTIFACTS)/obs-smoke/m8.txt
	diff $(ARTIFACTS)/obs-smoke/analyze1.json $(ARTIFACTS)/obs-smoke/analyze8.json
	$(GO) run ./cmd/traceinfo -events $(ARTIFACTS)/obs-smoke/run1.json | head -5

# Chaos soak: the fault-injection sweep at two fault seeds, each run
# sequentially and at width 8, diffed byte-identical — deterministic
# fault schedules are what keep graceful-degradation results
# reproducible (DESIGN.md §10).
chaos:
	rm -rf $(ARTIFACTS)/chaos && mkdir -p $(ARTIFACTS)/chaos
	for seed in 7 1998; do \
		$(GO) run ./cmd/utlbsim -exp chaos -scale 0.5 -fault-seed $$seed -parallel 1 > $(ARTIFACTS)/chaos/s$$seed-p1.txt && \
		$(GO) run ./cmd/utlbsim -exp chaos -scale 0.5 -fault-seed $$seed -parallel 8 > $(ARTIFACTS)/chaos/s$$seed-p8.txt && \
		diff $(ARTIFACTS)/chaos/s$$seed-p1.txt $(ARTIFACTS)/chaos/s$$seed-p8.txt || exit 1; \
	done
	@echo "chaos: byte-identical at widths 1 and 8 for both fault seeds"

# Overlap soak: the discrete-event engine's determinism gate, shaped
# like the chaos soak — the overlap experiment (sequential baseline +
# engine at three DMA pool widths) at two seeds, each run sequentially
# and at width 8, diffed byte-identical. The engine's dispatch order,
# by time and then post order, is what makes this hold (DESIGN.md §15).
overlap-soak:
	rm -rf $(ARTIFACTS)/overlap && mkdir -p $(ARTIFACTS)/overlap
	for seed in 7 1998; do \
		$(GO) run ./cmd/utlbsim -exp overlap -scale 0.3 -seed $$seed -parallel 1 > $(ARTIFACTS)/overlap/s$$seed-p1.txt && \
		$(GO) run ./cmd/utlbsim -exp overlap -scale 0.3 -seed $$seed -parallel 8 > $(ARTIFACTS)/overlap/s$$seed-p8.txt && \
		diff $(ARTIFACTS)/overlap/s$$seed-p1.txt $(ARTIFACTS)/overlap/s$$seed-p8.txt || exit 1; \
	done
	@echo "overlap: byte-identical at widths 1 and 8 for both seeds"

clean:
	$(GO) clean ./...
