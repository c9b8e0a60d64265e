GO ?= go

# PR is the ordinal stamped into freshly written benchmark baselines
# (BENCH_pr$(PR).json), so benchtrend orders them. It defaults to one past
# the newest committed baseline; pass PR=N to stamp another ordinal.
PR ?= $(shell git ls-files 'BENCH_pr*.json' 2>/dev/null | sed -n 's/^BENCH_pr\([0-9]*\)\.json$$/\1/p' | \
	sort -n | tail -n 1 | awk '{ n = $$1 } END { print n + 1 }')

.PHONY: build test vet fmt-check lint lint-json race crash chaos chaos-repl fuzz-smoke golden check bench bench-load bench-alloc bench-trend bench-gate bench-meta prof-smoke

## build: compile every package and command
build:
	$(GO) build ./...

## test: tier-1 test suite (the CI gate)
test:
	$(GO) test ./...

## vet: static analysis
vet:
	$(GO) vet ./...

## fmt-check: fail when gofmt would change any tracked root-module file
## (perfbench is the benchmark's own module and is left out)
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go' | grep -v '^perfbench/')); \
	  if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

## lint: project-specific invariants (qatklint); exit 1 on any finding
lint:
	$(GO) run ./cmd/qatklint ./...

## lint-json: qatklint findings as machine-readable JSON -> lint.json
## (the CI artifact; written even when there are findings, so a red run
## still leaves the evidence behind)
lint-json:
	$(GO) run ./cmd/qatklint -json ./... > lint.json; \
	  status=$$?; cat lint.json; exit $$status

## race: full test suite under the race detector
race:
	$(GO) test -race ./...

## crash: power-cut recovery harness — the fixed-seed enumeration (every
## VFS op index, every retention mode, no -short truncation) plus one
## randomized smoke run with a fresh seed.
crash:
	$(GO) test -run 'TestPowerCut' -count 1 ./internal/reldb/crashharness
	CRASH_RANDOM_SEED=1 $(GO) test -run 'TestPowerCutSmokeRandomSeed' -count 1 ./internal/reldb/crashharness

## chaos: the shard fault matrix under the race detector — {slow, error,
## wedged} × {owning, non-owning} plus hedging/breaker/goroutine hygiene.
## On failure the chaos fixture dumps its tail-sample wide-event ring to
## chaos_requests.json as a single-file flight bundle (render it with
## `qatk diagnose chaos_requests.json`); CI uploads it as an artifact.
chaos:
	@rm -f chaos_requests.json
	CHAOS_ARTIFACT=$(CURDIR)/chaos_requests.json $(GO) test -race -count 1 ./internal/shard || \
	  { [ -f chaos_requests.json ] && echo "chaos: tail-sample ring -> chaos_requests.json"; exit 1; }

## chaos-repl: the replication fault matrix under the race detector —
## {link drop, link delay, truncate-mid-frame, replica wedge, primary
## fsync latch, replica crash mid-apply} — asserting the router answers
## throughout (degraded/stale at worst, never divergent) and every broken
## replica re-syncs to the primary's exact state digest. On failure the
## fixture dumps its wide-event ring to repl_requests.json (render it
## with `qatk diagnose repl_requests.json`); CI uploads it as an artifact.
chaos-repl:
	@rm -f repl_requests.json
	CHAOS_ARTIFACT=$(CURDIR)/repl_requests.json $(GO) test -race -count 1 ./internal/repl || \
	  { [ -f repl_requests.json ] && echo "chaos-repl: tail-sample ring -> repl_requests.json"; exit 1; }

## fuzz-smoke: run each fuzz target for a fixed 10 s beyond its committed
## seeds (testdata/fuzz/); a crasher it finds is written there and becomes
## a regression test of the ordinary suite.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFeatures$$' -fuzztime 10s ./internal/qatk
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s ./internal/reldb
	$(GO) test -run '^$$' -fuzz '^FuzzReplayWAL$$' -fuzztime 10s ./internal/reldb
	$(GO) test -run '^$$' -fuzz '^FuzzRank$$' -fuzztime 10s ./internal/kb
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBundle$$' -fuzztime 10s ./internal/obs/flight
	$(GO) test -run '^$$' -fuzz '^FuzzLoadTaxonomy$$' -fuzztime 10s ./internal/taxonomy

## golden: run `experiments -small -all` and paper-scale `experiments -all`
## and diff their output, wall-clock columns masked, against
## cmd/experiments/testdata/small_all.golden and paper_all.golden.
golden:
	$(GO) test -count 1 -run '^Test(Small|Paper)AllGolden$$' ./cmd/experiments

## check: the pre-merge tier — vet, gofmt, qatklint, the race-enabled suite, the
## crash harness, the shard + replication chaos matrices, the fuzz smoke, the
## experiments goldens, the benchmark module's meta-tests, and the benchmark
## regression gate
check: vet fmt-check lint race crash chaos chaos-repl fuzz-smoke golden bench-meta bench-gate

# The full benchmark sweep shared by bench (committing a baseline) and
# bench-gate (comparing a fresh run against one). The root-package paper
# replications are full 5-fold CVs, so they run -benchtime=1x; the micro
# benchmarks use the default sampling.
BENCH_SWEEP = { $(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . ; \
	  $(GO) test -run '^$$' -bench . -benchmem ./internal/... ; }

## bench: full benchmark suite -> BENCH_pr$(PR).json (see EXPERIMENTS.md),
## stamped with the PR ordinal so benchtrend orders baselines structurally.
## Committed baselines are history: it fails rather than overwrite one, so
## pass the ordinal of the change being measured (make bench PR=N).
bench:
	@if [ -e BENCH_pr$(PR).json ]; then \
	  echo "bench: BENCH_pr$(PR).json exists; run make bench PR=<this change's ordinal>"; exit 1; fi
	$(BENCH_SWEEP) | $(GO) run ./cmd/benchjson -pr $(PR) -o BENCH_pr$(PR).json

## bench-trend: render the cross-PR trend table (ns/op, B/op, allocs/op,
## acc@k, stage timings) over every committed baseline -> benchtrend-report.md
bench-trend:
	$(GO) run ./cmd/benchtrend -dir . -o benchtrend-report.md

## bench-gate: the benchmark regression gate — run the sweep fresh and
## compare against the newest committed BENCH_pr*.json. Hard-fails on
## allocs/op growth and acc@k drift (both machine-independent); ns/op only
## fails beyond a generous growth threshold (wall clock varies by runner).
## Always writes benchtrend-report.md (trend + gate verdict); the fresh
## run survives as bench_fresh.json on failure for diffing.
bench-gate:
	$(BENCH_SWEEP) | $(GO) run ./cmd/benchjson -pr $(PR) -o bench_fresh.json
	$(GO) run ./cmd/benchtrend -dir . -gate -fresh bench_fresh.json -o benchtrend-report.md
	@rm -f bench_fresh.json

## bench-meta: build and check the benchmark module. perfbench is its own
## Go module, so `go build ./...` at the root never compiles it; this vets
## it against the current internal APIs and runs its meta-tests (a corrupted
## response counts as failed, every workload passes with layers that explain
## its wall, nearest-rank percentiles), with every temporary file outside
## the tree. TestInjectedCandidatesDelayLandsInKB stays out: its serve case
## compares a 200us injected delay against a live round trip and is too
## noisy for a gate.
BENCH_META_TESTS = ^(TestCorruptedResponseCountsAsFailed|TestWorkloadsPassAndLayersExplainWall|TestPercentileIsNearestRank)$$
bench-meta:
	cd perfbench && $(GO) vet .
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	cd perfbench && PERFBENCH_TMP="$$tmp" $(GO) test -count 1 -run '$(BENCH_META_TESTS)' .

## bench-load: closed-loop load against a 4-shard in-process server with
## one artificially slow shard and two WAL-shipped read replicas ->
## bench_load.json (gitignored; committed baselines are not rewritten).
## The hedged fan-out must keep p99 inside the 50ms SLO
## despite the 50ms-slow primary, with the hedges served by a fresh
## replica (the replica-served column); the line also carries the
## wide-event per-stage breakdown (stage-*-ms) plus the hedged/degraded/
## stale counts.
bench-load:
	$(GO) run ./cmd/loadgen -shards 4 -slow-shard 2 -slow-delay 50ms \
	  -replicas 2 -rps 200 -duration 10s -slo-p99 50ms | \
	  $(GO) run ./cmd/benchjson -o bench_load.json

## bench-alloc: the //qatk:hotpath contract in numbers -> bench_alloc.json
## (gitignored; committed baselines are not rewritten). Runs the hot-path
## benchmarks with -benchmem and fails unless every metric mutator
## (BenchmarkHot*) and disabled-observability fast path (*Disabled)
## reports exactly 0 allocs/op.
bench-alloc:
	$(GO) test -run '^$$' -bench 'BenchmarkHot|Disabled$$' -benchmem \
	  ./internal/obs ./internal/obs/flight ./internal/obs/prof ./internal/obs/reqlog ./internal/pipeline ./internal/repl | \
	  $(GO) run ./cmd/benchjson -assert-zero-allocs '/BenchmarkHot|Disabled$$' \
	  -o bench_alloc.json

## prof-smoke: boot questd against a tiny generated corpus with a fast
## profiler cadence, poll its one diagnostic surface (/debug/bundle)
## through `qatk diagnose` until the report's continuous profile renders
## a non-empty ring, then assert the polls wrote no bundle: the live
## view is read-only. The run arms -flight-dir so a crash during the
## smoke leaves a diagnosable bundle behind (CI uploads it).
prof-smoke:
	@rm -rf .profsmoke && mkdir -p .profsmoke/flight
	$(GO) run ./cmd/datagen -small -out .profsmoke/data
	$(GO) build -o .profsmoke/questd ./cmd/questd
	$(GO) build -o .profsmoke/qatk ./cmd/qatk
	@set -e; \
	.profsmoke/questd -data .profsmoke/data -addr 127.0.0.1:18080 \
	  -debug-addr 127.0.0.1:16060 -flight-dir .profsmoke/flight \
	  -prof-interval 150ms -prof-window 50ms -prof-ring 4 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT INT TERM; \
	ok=0; \
	for i in $$(seq 1 60); do \
	  sleep 0.25; \
	  if .profsmoke/qatk diagnose http://127.0.0.1:16060 > .profsmoke/report.txt 2>/dev/null \
	     && grep -Eq 'CONTINUOUS PROFILE .* [1-9][0-9]* snapshots' .profsmoke/report.txt; then ok=1; break; fi; \
	done; \
	if [ $$ok -ne 1 ]; then \
	  echo "prof-smoke: /debug/bundle never rendered a non-empty profile ring"; \
	  cat .profsmoke/report.txt 2>/dev/null; exit 1; \
	fi; \
	grep -A 12 'CONTINUOUS PROFILE' .profsmoke/report.txt; \
	if ls .profsmoke/flight | grep -q '^bundle-'; then \
	  echo "prof-smoke: polling /debug/bundle wrote bundles:"; ls .profsmoke/flight; exit 1; \
	fi; \
	echo "prof-smoke: OK ($$i polls, no bundle written)"
