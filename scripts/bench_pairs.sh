#!/bin/sh
# Alternating parent/change repeat sets of the repository's benchmark
# (results/issueN/parent.json and change.json). Usage:
#   bench_pairs.sh PARENT_BENCH CHANGE_BENCH OUTDIR [FIRST_SEED LAST_SEED]
# PARENT_BENCH / CHANGE_BENCH are bench binaries built once per side
# (go build -C <tree>/bench -o <file> .). Run from a directory whose
# parent holds BENCHMARK.json (the binaries write ./out/). Odd seeds run
# the parent first, even seeds the change first. One JSON file per side
# and seed lands in OUTDIR; merge them with scripts/bench_merge.py.
set -eu
parent=$1 change=$2 out=$3 first=${4:-1} last=${5:-10}
mkdir -p "$out"
seed=$first
while [ "$seed" -le "$last" ]; do
	if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		eval bin=\$$side
		"$bin" -seed "$seed" -runs 1 -out "$out/$side.$seed.json" >"$out/$side.$seed.log" 2>&1 ||
			echo "seed $seed $side: exit $?" >>"$out/failures.txt"
	done
	seed=$((seed + 1))
done
