package main

// Compare mode: two result files, one verdict per workload × end-to-end
// metric against the bound BENCHMARK.json fixes for it.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself
// reads: compare mode for the bounds, the smoke test for the metric
// lists.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the benchmark's acceptance rule is written in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// series is one workload × metric of one result file: the median over
// the file's runs and how far they scatter.
type series struct {
	median, spread float64
	runs           int
}

func seriesOf(f *resultFile, workload, name string) series {
	var vals, windowSpreads []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			vals = append(vals, m.Value)
			windowSpreads = append(windowSpreads, m.Spread)
		}
	}
	s := series{runs: len(vals)}
	if len(vals) == 0 {
		return s
	}
	s.median = median(vals)
	if len(vals) >= 4 {
		// Enough runs to measure run-to-run noise directly.
		q1, q3 := quartiles(vals)
		s.spread = ratio(q3-q1, s.median)
	} else {
		// Otherwise the noise inside the runs stands in for it.
		for _, w := range windowSpreads {
			s.spread = max(s.spread, w)
		}
	}
	return s
}

// compareFiles prints, per workload × end-to-end metric, both medians,
// how much worse B is than A as a share of A, the bound, and a verdict:
// ok, worse (beyond the bound), or unresolved (either side's spread is
// wider than the bound, so the comparison cannot tell). It reports
// whether anything was worse.
func compareFiles(w io.Writer, boundsPath, pathA, pathB string) (worse bool, err error) {
	var bm benchmarkFile
	var a, b resultFile
	for _, f := range []struct {
		path string
		v    any
	}{{boundsPath, &bm}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "A", "B", "worse_by", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range bm.Workloads {
		for _, m := range bm.EndToEnd {
			sa, sb := seriesOf(&a, wl.Name, m.Name), seriesOf(&b, wl.Name, m.Name)
			if sa.runs == 0 || sb.runs == 0 {
				return false, fmt.Errorf("%s × %s: %d runs in A, %d in B", wl.Name, m.Name, sa.runs, sb.runs)
			}
			worseBy := ratio(sb.median-sa.median, sa.median)
			if m.Better == "higher" {
				worseBy = -worseBy
			}
			verdict := "ok"
			switch {
			// setup_s is a median of repeats inside each run and its
			// bound applies to the medians only, as in the acceptance rule.
			case m.Name != "setup_s" && max(sa.spread, sb.spread) > m.Bound:
				verdict = "unresolved"
			case worseBy > m.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(w, "%-16s %-14s %14.4f %14.4f %+9.4f %7.2f %8.4f %8.4f  %s\n",
				wl.Name, m.Name, sa.median, sb.median, worseBy, m.Bound, sa.spread, sb.spread, verdict)
		}
	}
	return worse, nil
}
