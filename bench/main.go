// Command bench is the repository's one benchmark (see README.md and the
// root BENCHMARK.json, which declares it): four named workloads driven
// through the whole stack — public client, loopback TCP, server, HDD
// engine, WAL — in one process, end-to-end metrics from an untraced run
// and per-layer metrics from a traced one.
//
//	go run -C bench . -workload update_durable -seed 1 -seconds 24 -trace 0
//	go run -C bench . -runs 10 -out out/A.json       # every workload, ten seeds
//	go run -C bench . -compare out/A.json out/B.json # against BENCHMARK.json's bounds
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}; everything
// human-readable goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+"; empty runs all")
		seed     = flag.Int64("seed", 1, "seed of the generated transaction streams")
		seconds  = flag.Int("seconds", 24, "measured seconds per run (warm-up and set-up come on top)")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics; 0 reports end-to-end metrics")
		runs     = flag.Int("runs", 1, "repeat each workload this many times, with seeds seed, seed+1, ...")
		out      = flag.String("out", "", "also write every run's result to this JSON file, for -compare")
		compare  = flag.Bool("compare", false, "compare two result files (arguments: A.json B.json) against the bounds file; exit 1 on a regression")
		bounds   = flag.String("bounds", "../BENCHMARK.json", "BENCHMARK.json with the end-to-end metrics' bounds, for -compare")
		smoke    = flag.Bool("smoke", false, "smoke run: one set-up, half a second of warm-up")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files, got %d arguments", flag.NArg()))
		}
		worse, err := compareFiles(os.Stderr, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 1 {
		fatal(fmt.Errorf("-seconds and -runs must be at least 1, -trace 0 or 1"))
	}
	todo := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", ")))
		}
		todo = []Workload{*w}
	}
	opt := runOptions{seconds: *seconds, trace: *trace == 1, warmup: warmup, setups: setups}
	if *smoke {
		opt.warmup, opt.setups = 500*time.Millisecond, 1
	}
	var results []*result
	for i := range todo {
		for r := 0; r < *runs; r++ {
			opt.seed = *seed + int64(r)
			res, err := runWorkload(&todo[i], opt)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", todo[i].Name, err))
			}
			report(os.Stderr, res)
			results = append(results, res)
			line, err := json.Marshal(struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    int64             `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}{res.Correct, res.Attempted, res.Failed, contractMetrics(res.Metrics)})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s\n", line)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(resultFile{Runs: results}, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Runs []*result `json:"runs"`
}

// contractMetrics strips a run's metrics down to the two keys the
// benchmark contract allows per metric.
func contractMetrics(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m))
	for name, v := range m {
		out[name] = metric{Value: v.Value, Unit: v.Unit}
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].Name
	}
	return names
}

// report prints one run for a reader: every metric by name with its
// unit, its window spread and sample count where it has them.
func report(w *os.File, res *result) {
	mode := "end-to-end (tracing off)"
	if res.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %d s  %s ==\n", res.Workload, res.Seed, res.Seconds, mode)
	for _, set := range []map[string]metric{res.Metrics, res.Extra} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := set[name]
			fmt.Fprintf(w, "  %-36s %16.4f %-6s", name, m.Value, m.Unit)
			if !res.Trace && set[name].Spread != 0 {
				fmt.Fprintf(w, "  %s.spread %.4f", name, m.Spread)
			}
			if m.N != 0 {
				fmt.Fprintf(w, "  n=%d", m.N)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}
