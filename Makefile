# Offline, stdlib-only build. See README.md.

GO ?= go

.PHONY: all build vet test race cover bench bench-parallel bench-wal bench-read bench-smoke bench-e2e bench-e2e-smoke experiments examples check clean serve loadtest loadtest-matrix recovery-smoke stress-mvstore stress-wal fuzz-wal fuzz-checkpoint fuzz-wire torture torture-smoke obs-smoke

all: build vet test

# The CI gate: static checks plus the full suite under the race detector.
check:
	$(GO) vet ./...
	$(GO) test -race ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One benchmark per reproduced figure/table plus the micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Lifecycle scaling across core counts; results archived as JSON.
BENCHTIME ?= 1s
bench-parallel:
	$(GO) test ./internal/core/ -run '^$$' -bench BenchmarkParallelLifecycle \
		-benchmem -cpu 1,2,4,8 -benchtime $(BENCHTIME) \
		| $(GO) run ./cmd/benchjson -out BENCH_parallel.json

# Commit-path durability grid: memory-only vs group-committed WAL
# (several flush policies) vs per-commit fsync, at 1 and 8 committers.
bench-wal:
	$(GO) test ./internal/core/ -run '^$$' -bench BenchmarkWALCommit \
		-benchtime $(BENCHTIME) \
		| $(GO) run ./cmd/benchjson -out BENCH_wal.json

# Wait-free read-path scaling: Protocol A and C readers hammering one hot
# granule across core counts (DESIGN.md §14); results archived as JSON.
bench-read:
	$(GO) test ./internal/core/ -run '^$$' -bench BenchmarkReadScaling \
		-benchmem -cpu 1,2,4,8 -benchtime $(BENCHTIME) \
		| $(GO) run ./cmd/benchjson -out BENCH_read.json

# CI smoke: every benchmark compiles and runs once; scaling run at 1x.
bench-smoke:
	$(GO) test ./... -run '^$$' -bench . -benchtime=1x
	$(MAKE) bench-parallel BENCHTIME=1x
	$(MAKE) bench-wal BENCHTIME=1x
	$(MAKE) bench-read BENCHTIME=1x

# The repository's benchmark (BENCHMARK.json, bench/README.md): four
# workloads through the whole stack, end-to-end metrics to stdout. bench/
# is a module of its own, hence -C. The smoke compiles it and runs its
# tests, which drive every workload for a moment.
bench-e2e:
	$(GO) run -C bench .

bench-e2e-smoke:
	$(GO) test -C bench ./...

# Run the networked HDD service in the foreground (Ctrl-C drains).
serve:
	$(GO) run ./cmd/hddserver

# End-to-end network smoke: hddserver + hddload, latency archived as
# BENCH_net.json. CLIENTS/TXNS/OUT env vars tune the run.
loadtest:
	sh scripts/loadtest.sh

# Live engine matrix: the identical networked workload against every
# registered backend (see internal/enginereg), archived as
# BENCH_engines.json. ENGINES/CLIENTS/TXNS/OUT env vars tune the run.
loadtest-matrix:
	sh scripts/loadtest_matrix.sh

# Crash-recovery smoke: SIGKILL hddserver mid-load, restart on the same
# -data-dir, verify WAL replay and a clean follow-up load.
recovery-smoke:
	sh scripts/recovery_smoke.sh

# Observability smoke: the obs package (registry, trace ring, HTTP
# handler) and the server's end-to-end scrape/health tests, all under
# the race detector. See DESIGN.md §13.
obs-smoke:
	$(GO) test -race ./internal/obs/
	$(GO) test -race ./internal/server/ -run 'TestMetricsEndToEnd|TestHealthzDegraded'

# The version store's concurrency tests, repeated under the race detector:
# wait-free readers against committing writers and pruning GC, parallel GC
# passes on the prune queue, and the model test against a full-sweep
# reference. See DESIGN.md §14.
stress-mvstore:
	$(GO) test -race -count=20 -run 'Concurrent|Quick|Queue' ./internal/mvstore/

# The group commit's timing tests, repeated under the race detector: the
# hold decision, cohorts re-forming over a slow device, the lone committer,
# the fixed window. See DESIGN.md §10.3.
stress-wal:
	$(GO) test -race -count=20 -run 'Hold|Cohort|LoneCommitter|GroupCommit' ./internal/wal/

# Short fixed-budget fuzz of the WAL decoder and replay loop (the
# checked-in corpus under internal/wal/testdata runs on every `go test`).
FUZZTIME ?= 10s
fuzz-wal:
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzReplay -fuzztime $(FUZZTIME)

# Fixed-budget fuzz of the checkpoint decoder (corpus under
# internal/mvstore/testdata runs on every `go test`).
fuzz-checkpoint:
	$(GO) test ./internal/mvstore/ -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME)

# Fixed-budget fuzz of the wire decoders — the one parser that faces the
# network (corpus under internal/wire/testdata runs on every `go test`).
fuzz-wire:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz 'FuzzDecodeRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz 'FuzzDecodeResponse2$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz 'FuzzReadFrame$$' -fuzztime $(FUZZTIME)

# Crash-point torture: re-run the durability workload crashing at every
# filesystem operation in turn, reboot, audit the recovery invariants.
# See scripts/torture.sh and DESIGN.md §11.
torture:
	sh scripts/torture.sh full

# Bounded random sample of the lattice under -race (the CI gate).
torture-smoke:
	sh scripts/torture.sh smoke

# Paper-style experiment tables with shape checks.
experiments:
	$(GO) run ./cmd/hddbench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/inventory
	$(GO) run ./examples/reporting
	$(GO) run ./examples/decompose
	$(GO) run ./examples/operations

clean:
	$(GO) clean ./...
