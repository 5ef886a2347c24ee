# Offline, stdlib-only build. See README.md.

GO ?= go

.PHONY: all build vet test race cover bench bench-smoke bench-e2e bench-e2e-smoke experiments examples check clean serve stress-mvstore stress-wal stress-core fuzz-wal fuzz-wire torture torture-smoke

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

# One benchmark per reproduced figure/table plus the micro-benchmarks next
# to the code they time. Results go to stdout; nothing is archived.
bench:
	$(GO) test -bench=. -benchmem ./...

# CI smoke: every benchmark compiles and runs once.
bench-smoke:
	$(GO) test ./... -run '^$$' -bench . -benchtime=1x

# The repository's benchmark (BENCHMARK.json, bench/README.md): four
# workloads through the whole stack, end-to-end metrics to stdout. bench/
# is a module of its own, hence -C. The smoke compiles it, runs its tests,
# which drive every workload for a moment, and a one-second run of all
# four workloads into bench/out/smoke.json (CI's one artifact).
bench-e2e:
	$(GO) run -C bench .

bench-e2e-smoke:
	$(GO) test -C bench ./...
	mkdir -p bench/out
	$(GO) run -C bench . -smoke -seconds 1 -out out/smoke.json

# Run the networked HDD service in the foreground (Ctrl-C drains).
serve:
	$(GO) run ./cmd/hddserver

# The version store's concurrency tests, repeated under the race detector:
# wait-free readers against committing writers and pruning GC, parallel GC
# passes on the prune queue, and the model test against a full-sweep
# reference. See DESIGN.md §14.
stress-mvstore:
	$(GO) test -race -count=20 -run 'Concurrent|Quick|Queue' ./internal/mvstore/

# The group commit's timing tests, repeated under the race detector: the
# hold decision, cohorts re-forming over a slow device, the lone committer,
# the fixed window, and the sticky poison latch. See DESIGN.md §10.3.
stress-wal:
	$(GO) test -race -count=20 -run 'Hold|Cohort|LoneCommitter|GroupCommit|Poison' ./internal/wal/

# The transaction lifecycle, repeated under the race detector: the recorder's
# serializability check with force-aborts racing every transaction kind,
# ad-hoc gates, the reaper, read-only variants and shutdown, plus the
# durability tests around the commit path that writes the log: snapshots
# racing commits and GC, recovery, fail-stop poisoning and the log's
# contents, and the counters Stats and /metrics share. See DESIGN.md §8,
# §10 and §13.
stress-core:
	$(GO) test -race -count=10 -run 'Serializab|AdHoc|Reap|ReadOnly|Path|Close|Snapshot|Durable|Uncommitted|Poison|LogHolds|Legacy|Stats|Obs' ./internal/core/

# Short fixed-budget fuzz of the one on-disk format: the log's record
# decoder and replay loop, and checkpoints, which are log segments (the
# checked-in corpora under testdata/ run on every `go test`).
FUZZTIME ?= 10s
fuzz-wal:
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzReplay -fuzztime $(FUZZTIME)
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
