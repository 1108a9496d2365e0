GO ?= go

# Where obs-smoke, chaos, overlap-soak, profile-sim and profile-rec leave their
# outputs; CI uploads parts of this directory as build artifacts.
ARTIFACTS ?= artifacts

.PHONY: all check vet loc build test race fuzz-smoke bench-smoke profile-sim profile-rec obs-smoke chaos overlap-soak clean

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

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The allocation budgets (Test*AllocBudget, Test*AllocsIndependentOfEvents)
# count the race detector's own allocations against the code under test,
# so they belong to the non-race run only: `make test` runs every one
# of them. This is the one -race pass over internal/{telemetry,xlate,serve}
# in `make check`. The service's concurrency checks, and the sink's
# readers against its traffic (the Sink.mu -> shard.mu lock order),
# run three more times: each run is a different interleaving.
race:
	$(GO) test -race -skip 'AllocBudget|AllocsIndependentOfEvents' ./...
	$(GO) test -race -count=3 -run 'TestConcurrentHistory|TestLookupManyMatchesSingleLookups|TestConcurrentDisjointShadows|TestTelemetryReadersDuringTraffic' ./internal/xlate

# Fuzz smoke: `make test` runs only the fuzzers' seed corpora, so a
# codec change would otherwise meet no new input. Each fuzzer gets
# FUZZTIME of -fuzz (5 s in `make check` and CI; `make fuzz-smoke
# FUZZTIME=30s` after touching the codec or the service), one at a
# time (go test fuzzes one target per run): the /api/xlate/* codec's four against their oracles
# (xlate_oracle_test.go), the service's against its shadow map, and the
# simulator's long traces against its cost-free model (oracle_test.go).
# A finding fails the target and is written under the package's
# testdata/fuzz/ as a new seed.
FUZZTIME ?= 5s
fuzz-smoke:
	for f in FuzzScanKeys FuzzQueryParam FuzzLookupReply FuzzParseBody; do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) ./internal/serve || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzServiceVsShadow$$' -fuzztime $(FUZZTIME) ./internal/xlate
	$(GO) test -run '^$$' -fuzz '^FuzzSimVsOracle$$' -fuzztime $(FUZZTIME) ./internal/sim

# The repository's benchmark (bench/, a module of its own; run for real
# with `bash bench/run.sh`) imports internal/* from outside, so an API
# change there breaks it without breaking `go build ./...`. Its own
# tests are the ~3 s -quick pass over all six workloads plus the
# checker's negative tests.
bench-smoke:
	cd bench && $(GO) test ./...

# CPU profile of the simulator core: Table 6 at paper scale (every
# application through both mechanisms — the bench's sim_paper mix),
# with the top of the cumulative listing printed. The profile stays in
# $(ARTIFACTS)/profile for `go tool pprof`; CI uploads it, so the next
# performance issue starts from a profile rather than a guess.
profile-sim:
	mkdir -p $(ARTIFACTS)/profile
	$(GO) build -o $(ARTIFACTS)/profile/utlbsim ./cmd/utlbsim
	$(ARTIFACTS)/profile/utlbsim -exp t6 -parallel 1 -cpuprofile $(ARTIFACTS)/profile/sim.prof >/dev/null
	$(GO) tool pprof -top -cum $(ARTIFACTS)/profile/utlbsim $(ARTIFACTS)/profile/sim.prof 2>/dev/null | head -20

# Heap profile of the recorded-run path: Table 6 at a quarter of paper
# scale, recorded, with analysis and the Chrome export (the bench's
# sim_recorded request, through the CLI), and the top of the cumulative
# allocated-bytes listing printed. A recorded run should allocate its
# events' chunks (obs.Buffer.Record) and little else that grows with
# them; CI uploads the profile next to profile-sim's, so the next
# allocation issue starts from a profile too.
profile-rec:
	mkdir -p $(ARTIFACTS)/profile
	$(GO) build -o $(ARTIFACTS)/profile/utlbsim ./cmd/utlbsim
	$(ARTIFACTS)/profile/utlbsim -exp t6 -scale 0.25 -parallel 1 \
		-trace-out $(ARTIFACTS)/profile/rec.trace.json -analyze-out $(ARTIFACTS)/profile/rec.analyze.json \
		-memprofile $(ARTIFACTS)/profile/rec.mprof >/dev/null
	rm -f $(ARTIFACTS)/profile/rec.trace.json
	$(GO) tool pprof -sample_index=alloc_space -top -cum $(ARTIFACTS)/profile/utlbsim $(ARTIFACTS)/profile/rec.mprof 2>/dev/null | head -20

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
# and at width 8, diffed byte-identical. The event kernel's (time, seq)
# dispatch order is what makes this hold (DESIGN.md §15).
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
