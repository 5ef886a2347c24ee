#!/usr/bin/env python3
"""Merge per-seed bench -out files into one repeat set: bench_merge.py OUT IN..."""
import json, sys

runs = []
for path in sys.argv[2:]:
    with open(path) as f:
        runs.extend(json.load(f)["runs"])
with open(sys.argv[1], "w") as f:
    json.dump({"runs": runs}, f, indent=1)
    f.write("\n")
