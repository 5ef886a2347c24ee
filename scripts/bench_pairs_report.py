#!/usr/bin/env python3
"""Per-pair reading of two repeat sets: bench_pairs_report.py PARENT.json CHANGE.json

For every workload and end-to-end metric: each side's quartiles and range
over the set, the shift of the median, the parent's interquartile
distance, and how many seed-matched pairs the change wins (ties count for
neither). Then the whole-run figures of each run, which -compare does not
print."""
import json, sys

BETTER = {"txn_per_s": 1, "txn_p50_us": -1, "txn_p95_us": -1, "mem_mb": -1, "setup_s": -1}


def load(path):
    runs = {}
    with open(path) as f:
        for r in json.load(f)["runs"]:
            runs[(r["workload"], r["seed"])] = r
    return runs


def quartiles(xs):
    xs = sorted(xs)

    def q(p):
        i = p * (len(xs) - 1)
        lo = int(i)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (i - lo)

    return q(0.25), q(0.5), q(0.75)


def main():
    a, b = load(sys.argv[1]), load(sys.argv[2])
    workloads = []
    for w, _ in a:
        if w not in workloads:
            workloads.append(w)
    print("workload metric | parent q1/med/q3 [min..max] | change q1/med/q3 [min..max] | median shift | parent IQR | pairs won | failed a/b")
    for w in workloads:
        seeds = sorted(s for (ww, s) in a if ww == w and (w, s) in b)
        for m, sign in BETTER.items():
            xa = [a[(w, s)]["metrics"][m]["value"] for s in seeds]
            xb = [b[(w, s)]["metrics"][m]["value"] for s in seeds]
            qa, qb = quartiles(xa), quartiles(xb)
            won = sum(1 for x, y in zip(xa, xb) if (y - x) * sign > 0)
            lost = sum(1 for x, y in zip(xa, xb) if (y - x) * sign < 0)
            fa = sum(a[(w, s)]["failed"] for s in seeds)
            fb = sum(b[(w, s)]["failed"] for s in seeds)
            print("%-15s %-10s | %.4g/%.4g/%.4g [%.4g..%.4g] | %.4g/%.4g/%.4g [%.4g..%.4g] | %+.1f%% | %.4g | %d-%d of %d | %d/%d" % (
                w, m, *qa, min(xa), max(xa), *qb, min(xb), max(xb),
                100 * (qb[1] - qa[1]) / qa[1], qa[2] - qa[0], won, lost, len(seeds), fa, fb))
    print()
    print("whole-run figures (extra): workload seed side txn_per_s_run txn_p50_us_run txn_p95_us_run txn_p99_us_run")
    for w in workloads:
        for s in sorted(s for (ww, s) in a if ww == w):
            for side, runs in (("parent", a), ("change", b)):
                if (w, s) not in runs:
                    continue
                e = runs[(w, s)]["extra"]
                print("%-15s %2d %-6s %9.0f %9.0f %9.0f %9.0f" % (
                    w, s, side, *(e.get(k, {"value": 0})["value"] for k in
                                  ("txn_per_s_run", "txn_p50_us_run", "txn_p95_us_run", "txn_p99_us_run"))))


if __name__ == "__main__":
    main()
