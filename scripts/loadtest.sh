#!/bin/sh
# loadtest.sh: spawn hddserver on an ephemeral port, drive it with
# hddload, and archive the latency results as BENCH_net.json via the
# same benchjson format the scaling benchmarks use.
#
# The server also exposes its observability plane on an ephemeral
# metrics port; hddload scrapes /metrics at the end of the run, archives
# the raw snapshot, and folds the WAL fsync and per-class commit series
# into the same BENCH_net.json. The server runs with mutex profiling on,
# and hddload additionally archives /debug/pprof/mutex — the read-path
# contention audit for DESIGN.md §14 (inspect with `go tool pprof -top`).
#
# Environment knobs (all optional):
#   CLIENTS       concurrent workers          (default 8)
#   TXNS          transactions per worker     (default 200)
#   OUT           output JSON path            (default BENCH_net.json)
#   METRICS_OUT   raw /metrics snapshot path  (default metrics_snapshot.txt)
#   MUTEX_OUT     mutex pprof profile path    (default mutex_profile.pb.gz)
set -eu

CLIENTS="${CLIENTS:-8}"
TXNS="${TXNS:-200}"
OUT="${OUT:-BENCH_net.json}"
METRICS_OUT="${METRICS_OUT:-metrics_snapshot.txt}"
MUTEX_OUT="${MUTEX_OUT:-mutex_profile.pb.gz}"
GO="${GO:-go}"

workdir="$(mktemp -d)"
addrfile="$workdir/addr"
metricsfile="$workdir/metrics-addr"
server_pid=""

cleanup() {
	if [ -n "$server_pid" ]; then
		# SIGTERM triggers the server's graceful drain.
		kill "$server_pid" 2>/dev/null || true
		wait "$server_pid" 2>/dev/null || true
	fi
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$workdir/hddserver" ./cmd/hddserver
"$GO" build -o "$workdir/hddload" ./cmd/hddload
"$GO" build -o "$workdir/benchjson" ./cmd/benchjson

# A throwaway -data-dir makes the run durable so the scraped snapshot
# carries the WAL flush/fsync series, not just in-memory counters.
# -mutex-profile-fraction populates /debug/pprof/mutex (sampling every
# contention event — fine for a bounded smoke run).
"$workdir/hddserver" -addr 127.0.0.1:0 -addr-file "$addrfile" \
	-metrics-addr 127.0.0.1:0 -metrics-addr-file "$metricsfile" \
	-mutex-profile-fraction 1 \
	-data-dir "$workdir/data" -quiet &
server_pid=$!

# The server writes both bound addresses once the listeners are up.
i=0
while [ ! -s "$addrfile" ] || [ ! -s "$metricsfile" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "loadtest: server never published its addresses" >&2
		exit 1
	fi
	if ! kill -0 "$server_pid" 2>/dev/null; then
		echo "loadtest: server exited before binding" >&2
		exit 1
	fi
	sleep 0.1
done
addr="$(cat "$addrfile")"
metrics_addr="$(cat "$metricsfile")"
echo "loadtest: server at $addr, metrics at $metrics_addr (pid $server_pid)" >&2

# Bench lines accumulate in a file rather than a pipe so an hddload
# failure (client error, drain leak, protocol error) aborts the script
# under `set -e` instead of vanishing on the left side of a pipeline.
bench_lines="$workdir/bench_lines"
"$workdir/hddload" -addr "$addr" -clients "$CLIENTS" -txns "$TXNS" \
	-metrics-addr "$metrics_addr" -metrics-out "$METRICS_OUT" \
	-mutex-profile-out "$MUTEX_OUT" > "$bench_lines"
"$workdir/benchjson" -out "$OUT" < "$bench_lines"

echo "loadtest: wrote $OUT, $METRICS_OUT and $MUTEX_OUT" >&2
