package main

import (
	"testing"
	"time"
)

// TestSmoke runs every workload end to end for three seconds of measured
// time, untraced and traced, and checks what the benchmark
// contract checks: outputs verified correct, no failed operation, and
// exactly the metrics BENCHMARK.json declares, with its units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke run takes about a minute")
	}
	var bm benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bm.Workloads), len(workloads))
	}
	for _, wl := range bm.Workloads {
		w := workloadByName(wl.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", wl.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, runOptions{seed: 1, seconds: 3, trace: trace, warmup: 500 * time.Millisecond, setups: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%q",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			declared := bm.EndToEnd
			if trace {
				declared = bm.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: declared metric %s not reported", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, d.Name, m.Unit, d.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}
