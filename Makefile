# Offline, stdlib-only build. See README.md.

GO ?= go

.PHONY: all build vet test race cover bench bench-smoke bench-e2e bench-e2e-smoke experiments examples check allocs loc clean serve stress-mvstore stress-wal stress-core stress-client stress-server fuzz-wal fuzz-wire torture torture-smoke

all: build vet test

# The CI gate: static checks plus the full suite under the race detector.
check:
	$(GO) vet ./...
	$(GO) test -race ./...

# The allocation and heap budgets, which skip under -race and so never run
# in `check`: allocations per transaction, per hdd.Run, per read and per
# commit, the version store's heap per granule, and the heap's
# fragmentation per granule under the embedded benchmark's shape.
allocs:
	$(GO) test -count=1 -run 'Alloc|PerGranule' ./...

build:
	$(GO) build ./...

# The size trend ROADMAP.md tracks: non-test Go lines of the root module
# without examples/ and bench/, then of bench/ on its own; then the bytes
# of the two long documents and of the committed evidence under results/.
loc:
	@echo "root module without examples/ and bench/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './examples/*' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "bench/: $$(find ./bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "DESIGN.md: $$(wc -c < DESIGN.md) bytes; EXPERIMENTS.md: $$(wc -c < EXPERIMENTS.md) bytes"
	@echo "results/: $$(find results -type f -exec cat {} + | wc -c) bytes in $$(find results -type f | wc -l) files"

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
# passes on the prune queue, the model test against a full-sweep
# reference, and lookups racing creates in the directory. See DESIGN.md §14.
stress-mvstore:
	$(GO) test -race -count=20 -run 'Concurrent|Quick|Queue|Lookup' ./internal/mvstore/

# The group commit, repeated under the race detector: the wall-clock smoke
# tests that Log drives its scheduler (cohorts over a slow device, the lone
# committer, open-loop commits beside the flush in flight), the pure tests
# that a Sync and the byte threshold end a hold, the sticky poison latch, a
# failed fsync failing the batches after it, a writeback error reaching
# every overlapping fsync, and the device model's table and assertions. The second line runs the model
# alone: it is deterministic, so any failure is a bug. See DESIGN.md §10.3.
stress-wal:
	$(GO) test -race -count=20 -run 'Hold|Cohort|LoneCommitter|GroupCommit|Poison|OpenLoop|FailedSync|Overlap|Model' ./internal/wal/
	$(GO) test -count=200 -run 'Model' ./internal/wal/

# The transaction lifecycle, repeated under the race detector: the recorder's
# serializability check with force-aborts racing every transaction kind,
# the reaper, read-only variants and shutdown, force-aborts of update
# transactions with and without an on-demand cancel channel, a 4 096-granule
# write set committed and aborted, plus the
# durability tests around the commit path that writes the log: snapshots
# racing commits and GC, recovery, fail-stop poisoning and the log's
# contents, and the counters Stats and /metrics share. See DESIGN.md §8,
# §10 and §13.
stress-core:
	$(GO) test -race -count=10 -run 'Serializab|Reap|ReadOnly|Path|Close|Snapshot|Durable|Uncommitted|Poison|LogHolds|Legacy|Stats|Obs|OnDemand|WriteSet' ./internal/core/

# The client's multiplexed connection, repeated under the race detector:
# pooled call cells, the per-connection deadline sweep, values carved from
# the read chunk, frame-writer liveness, the reader's hold over a burst of
# responses (one request write per burst; no held frame strands) and
# redial after a server restart.
# The allocation budgets it names skip under -race; `allocs` runs them.
stress-client:
	$(GO) test -race -count=20 -run 'Timeout|Alloc|Ownership|Liveness|Restart|Burst|Strand' ./client/

# The server's session, repeated under the race detector: requests run
# inline on the session goroutine beside the per-transaction FIFO (a read
# that must wait falls back, order holds), pipelined and out-of-order
# responses, orphaned connections, the drain, degraded mode and begins
# beside a pending checkpoint. See DESIGN.md §15.
stress-server:
	$(GO) test -race -count=20 -run 'Inline|Pipeline|OutOfOrder|Orphan|Drain|Degraded|Checkpoint' ./internal/server/

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
	$(GO) run ./examples/inventory
	$(GO) run ./examples/reporting
	$(GO) run ./examples/decompose
	$(GO) run ./examples/operations

clean:
	$(GO) clean ./...
