package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.2, 0.8, 1.0, 1.1], n=4) == [0.85, 1.05, 1.175]
	q1, q3 = quartiles([]float64{1.2, 0.8, 1.0, 1.1})
	if math.Abs(q1-0.85) > 1e-12 || math.Abs(q3-1.175) > 1e-12 {
		t.Errorf("quartiles = %v, %v; Python gives 0.85, 1.175", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := write("BENCHMARK.json", map[string]any{
		"workloads": []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{
			{"name": "tps", "unit": "1/s", "better": "higher", "bound": 0.1},
			{"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
			{"name": "noisy", "unit": "us", "better": "lower", "bound": 0.1},
			{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		}})
	runs := func(tps, lat float64, noisy, setup []float64) resultFile {
		var f resultFile
		for i := range noisy {
			f.Runs = append(f.Runs, &result{Workload: "w", Metrics: map[string]metric{
				"tps": {Value: tps}, "lat": {Value: lat}, "noisy": {Value: noisy[i]}, "setup_s": {Value: setup[i]}}})
		}
		return f
	}
	a := write("a.json", runs(1000, 100, []float64{80, 100, 120, 140}, []float64{1, 2, 3, 4}))
	// Throughput down 5 % (inside the bound), latency up 20 % (outside).
	b := write("b.json", runs(950, 120, []float64{80, 100, 120, 140}, []float64{1, 2, 3, 4}))

	var out bytes.Buffer
	worse, err := compareFiles(&out, bounds, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 20 % latency regression against a 10 % bound must report worse")
	}
	verdict := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n")[1:] {
		if f := strings.Fields(line); len(f) > 0 {
			verdict[f[1]] = f[len(f)-1]
		}
	}
	// setup_s scatters as widely as noisy but is judged on its medians.
	want := map[string]string{"tps": "ok", "lat": "worse", "noisy": "unresolved", "setup_s": "ok"}
	for m, w := range want {
		if verdict[m] != w {
			t.Errorf("%s: verdict %q, want %q\n%s", m, verdict[m], w, out.String())
		}
	}
	if worse, err := compareFiles(&out, bounds, a, a); err != nil || worse {
		t.Errorf("a file compared with itself: worse=%v err=%v", worse, err)
	}
	if _, err := compareFiles(&out, bounds, a, write("empty.json", resultFile{})); err == nil {
		t.Error("a result file without the workload's runs must be an error")
	}
}
