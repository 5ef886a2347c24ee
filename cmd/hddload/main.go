// Command hddload is a closed-loop load generator for hddserver: N client
// goroutines, each with its own multiplexed connection set, drive a mixed
// update / read-only workload through the public client package and the
// unchanged hdd.RunCtx retry loop, then verify the server drained cleanly
// (no leaked sessions or transactions).
//
// Usage:
//
//	hddload -addr 127.0.0.1:7070 -clients 8 -txns 200 -readonly-frac 0.25
//	hddload -engines HDD,MV2PL,MVTO -clients 8 -txns 200
//
// With -engines, hddload instead sweeps backends: for each named engine it
// boots an in-process server on a loopback listener (the full wire stack —
// TCP, framing, sessions — not an in-memory shortcut), runs the identical
// workload against it, and emits one set of bench lines per engine tagged
// `/engine=NAME`. That is the live apples-to-apples comparison the paper's
// Figure 10 makes offline. Durable engines get a throwaway data directory
// and their durability counters are checked to round-trip over the wire.
//
// Latency is reported per workload class via internal/metrics.Histogram.
// Stdout carries `go test -bench`-style result lines so the run can be
// piped through cmd/benchjson into BENCH_net.json / BENCH_engines.json:
//
//	hddload -addr ... | benchjson -out BENCH_net.json
//	hddload -engines HDD,2PL,MVTO | benchjson -out BENCH_engines.json
//
// Everything human-readable goes to stderr. Exit status is non-zero on
// client errors or a failed drain check.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdd"
	"hdd/client"
	"hdd/internal/enginereg"
	"hdd/internal/metrics"
	"hdd/internal/server"
)

// loadCfg is the workload shape, shared by the single-server run and every
// leg of an engine sweep.
type loadCfg struct {
	clients, txns, classes int
	roFrac                 float64
	keys                   uint64
	valSize                int
	seed                   int64
}

// loadResult aggregates one run.
type loadResult struct {
	updateLat, roLat metrics.Histogram
	attempts         atomic.Int64 // fn invocations, including retries
	committed        atomic.Int64
	roDone           atomic.Int64
	failures         atomic.Int64
	elapsed          time.Duration
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "hddserver address (single-server mode)")
		engines   = flag.String("engines", "", "comma-separated engines to sweep over in-process loopback servers (overrides -addr); see internal/enginereg")
		clients   = flag.Int("clients", 8, "concurrent client goroutines")
		txns      = flag.Int("txns", 200, "transactions per client")
		classes   = flag.Int("classes", 3, "update classes to spread writes over (must be <= server's -classes)")
		roFrac    = flag.Float64("readonly-frac", 0.25, "fraction of transactions that are read-only")
		keys      = flag.Uint64("keys", 256, "keys per segment")
		valSize   = flag.Int("value", 64, "value size in bytes")
		seed      = flag.Int64("seed", 1, "workload seed")
		timeout   = flag.Duration("timeout", 2*time.Minute, "overall run deadline")
		skipDrain = flag.Bool("skip-drain-check", false, "do not verify zero leaked sessions at the end")

		metricsAddr = flag.String("metrics-addr", "", "server's -metrics-addr endpoint to scrape after the run (single-server mode); folds WAL fsync and per-class commit series into the bench output")
		metricsOut  = flag.String("metrics-out", "", "write the raw end-of-run /metrics snapshot to this file")
		mutexOut    = flag.String("mutex-profile-out", "", "fetch /debug/pprof/mutex from -metrics-addr after the run and write the pprof profile here (server must run with -mutex-profile-fraction > 0)")
	)
	flag.Parse()
	if *clients < 1 || *txns < 1 || *classes < 1 {
		fatal(fmt.Errorf("-clients, -txns and -classes must be >= 1"))
	}
	cfg := loadCfg{
		clients: *clients, txns: *txns, classes: *classes,
		roFrac: *roFrac, keys: *keys, valSize: *valSize, seed: *seed,
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *engines != "" {
		ok := true
		for _, name := range strings.Split(*engines, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !sweepEngine(ctx, name, cfg, *skipDrain) {
				ok = false
			}
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	res := runLoad(ctx, *addr, cfg)
	ok := res.failures.Load() == 0
	emitBench(res, cfg.clients, "")
	report(res, cfg, *addr)
	if !*skipDrain {
		if err := checkDrain(*addr, ""); err != nil {
			fmt.Fprintf(os.Stderr, "hddload: drain check FAILED: %v\n", err)
			ok = false
		} else {
			fmt.Fprintln(os.Stderr, "hddload: drain check ok — zero leaked sessions/transactions")
		}
	}
	if *metricsAddr != "" {
		// Scrape after the drain check so the snapshot reflects the
		// settled end-of-run state, not transactions still unwinding.
		if err := scrapeMetrics(*metricsAddr, *metricsOut, cfg.clients, res.elapsed); err != nil {
			fmt.Fprintf(os.Stderr, "hddload: metrics scrape: %v\n", err)
			ok = false
		}
		if *mutexOut != "" {
			if err := fetchMutexProfile(*metricsAddr, *mutexOut); err != nil {
				fmt.Fprintf(os.Stderr, "hddload: mutex profile: %v\n", err)
				ok = false
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// scrapeMetrics pulls the server's /metrics endpoint once the load is
// done, optionally archives the raw snapshot, and folds the series the
// net benchmarks track — WAL fsync latency and per-class commit counts —
// into the same bench-line stream emitBench writes, so benchjson lands
// them in BENCH_net.json alongside the client-side latencies.
func scrapeMetrics(addr, outPath string, clients int, elapsed time.Duration) error {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, body, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hddload: wrote metrics snapshot to %s\n", outPath)
	}
	series := parseExposition(string(body))

	// WAL fsync: the summary's _sum/_count give mean seconds per fsync.
	if cnt := series["hdd_wal_fsync_seconds_count"]; cnt > 0 {
		sum := series["hdd_wal_fsync_seconds_sum"]
		fmt.Printf("BenchmarkNetWalFsync-%d\t%d\t%.1f ns/op\n",
			clients, int64(cnt), sum/cnt*1e9)
	}
	// Per-class commits: wall-time per commit within each class, so the
	// chain partition's class skew is visible in BENCH_net.json.
	var classes []string
	for name := range series {
		if strings.HasPrefix(name, `hdd_txn_commits_total{class="`) {
			classes = append(classes, name)
		}
	}
	sort.Strings(classes)
	for _, name := range classes {
		cnt := series[name]
		if cnt <= 0 {
			continue
		}
		cls := strings.TrimSuffix(strings.TrimPrefix(name, `hdd_txn_commits_total{class="`), `"}`)
		fmt.Printf("BenchmarkNetCommitsClass%s-%d\t%d\t%.1f ns/op\n",
			cls, clients, int64(cnt), float64(elapsed.Nanoseconds())/cnt)
	}
	return nil
}

// fetchMutexProfile pulls /debug/pprof/mutex from the server's
// observability listener and archives the gzipped pprof protobuf. The
// profile is the read-path contention audit for DESIGN.md §14: under the
// wait-free read path the mvstore frames should contribute zero samples.
// Empty unless the server was started with -mutex-profile-fraction > 0.
func fetchMutexProfile(addr, outPath string) error {
	resp, err := http.Get("http://" + addr + "/debug/pprof/mutex")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/pprof/mutex: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, body, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hddload: wrote mutex profile to %s (inspect with `go tool pprof -top %s`)\n", outPath, outPath)
	return nil
}

// parseExposition reads Prometheus text format leniently: comment and
// blank lines are skipped, every other line is "series value" with the
// series possibly carrying a {label} block. Unparseable lines are
// ignored — the strict grammar check lives in the server e2e test.
func parseExposition(text string) map[string]float64 {
	series := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series[strings.TrimSpace(line[:i])] = v
	}
	return series
}

// sweepEngine runs one leg of the engine matrix: boot an in-process server
// for the named engine on a loopback listener, drive the workload through
// the real client/wire stack, verify the drain (and, for durable engines,
// that the durability counters round-trip), then shut the server down.
func sweepEngine(ctx context.Context, name string, cfg loadCfg, skipDrain bool) bool {
	entry, known := enginereg.Lookup(name)
	if !known {
		fmt.Fprintf(os.Stderr, "hddload: unknown engine %q (registered: %s)\n",
			name, strings.Join(enginereg.Names(), ", "))
		return false
	}
	part, err := enginereg.ChainPartition(cfg.classes)
	if err != nil {
		fatal(err)
	}
	opts := enginereg.Options{Partition: part, TxnTimeout: 10 * time.Second}
	if entry.Durable {
		dir, err := os.MkdirTemp("", "hddload-"+strings.ToLower(entry.Name)+"-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		opts.DataDir = dir
	}
	eng, err := enginereg.Build(entry.Name, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hddload: %s: %v\n", entry.Name, err)
		return false
	}
	srv := server.New(eng, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	addr := l.Addr().String()
	fmt.Fprintf(os.Stderr, "hddload: engine %s serving on %s (caps: %v)\n",
		entry.Name, addr, srv.Capabilities())

	res := runLoad(ctx, addr, cfg)
	ok := res.failures.Load() == 0
	emitBench(res, cfg.clients, "/engine="+entry.Name)
	report(res, cfg, entry.Name+" @ "+addr)
	if !skipDrain {
		if err := checkDrain(addr, entry.Name); err != nil {
			fmt.Fprintf(os.Stderr, "hddload: %s: drain check FAILED: %v\n", entry.Name, err)
			ok = false
		} else {
			fmt.Fprintf(os.Stderr, "hddload: %s: drain check ok\n", entry.Name)
		}
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = srv.Shutdown(shutCtx)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hddload: %s: shutdown: %v\n", entry.Name, err)
		ok = false
	}
	if serveErr := <-done; serveErr != nil {
		fmt.Fprintf(os.Stderr, "hddload: %s: serve: %v\n", entry.Name, serveErr)
		ok = false
	}
	return ok
}

// runLoad drives the mixed workload against addr with cfg.clients closed
// loops and returns the aggregated result.
func runLoad(ctx context.Context, addr string, cfg loadCfg) *loadResult {
	res := &loadResult{}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hddload: worker %d: %v\n", worker, err)
				res.failures.Add(1)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(cfg.seed + int64(worker)))
			val := make([]byte, cfg.valSize)
			for i := 0; i < cfg.txns; i++ {
				if ctx.Err() != nil {
					res.failures.Add(1)
					return
				}
				readOnly := rng.Float64() < cfg.roFrac
				cls := hdd.ClassID(rng.Intn(cfg.classes))
				key := rng.Uint64() % cfg.keys
				fillValue(val, worker, i)
				t0 := time.Now()
				var err error
				if readOnly {
					err = hdd.RunCtx(ctx, c, hdd.NoClass, func(t hdd.Txn) error {
						res.attempts.Add(1)
						// Protocol C: wall-bounded reads across two segments.
						if _, err := t.Read(hdd.GranuleID{Segment: 0, Key: key}); err != nil {
							return err
						}
						if cfg.classes > 1 {
							if _, err := t.Read(hdd.GranuleID{Segment: 1, Key: key}); err != nil {
								return err
							}
						}
						return nil
					}, hdd.RetryPolicy{})
				} else {
					err = hdd.RunCtx(ctx, c, cls, func(t hdd.Txn) error {
						res.attempts.Add(1)
						// Protocol A read below the root (when one exists),
						// then a Protocol B write in the root segment.
						if cls > 0 {
							if _, err := t.Read(hdd.GranuleID{Segment: hdd.SegmentID(cls - 1), Key: key}); err != nil {
								return err
							}
						}
						return t.Write(hdd.GranuleID{Segment: hdd.SegmentID(cls), Key: key}, val)
					}, hdd.RetryPolicy{})
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "hddload: worker %d txn %d: %v\n", worker, i, err)
					res.failures.Add(1)
					return
				}
				if readOnly {
					res.roLat.Observe(time.Since(t0))
					res.roDone.Add(1)
				} else {
					res.updateLat.Observe(time.Since(t0))
					res.committed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// emitBench prints bench-format result lines on stdout for cmd/benchjson.
// tag distinguishes engine-sweep legs ("/engine=HDD"); empty for the
// single-server mode.
func emitBench(res *loadResult, clients int, tag string) {
	emit := func(name string, h *metrics.Histogram) {
		if h.Count() > 0 {
			fmt.Printf("BenchmarkNet%s%s-%d\t%d\t%.1f ns/op\n", name, tag, clients, h.Count(), float64(h.Mean()))
		}
	}
	emit("Update", &res.updateLat)
	emit("ReadOnly", &res.roLat)
	total := res.committed.Load() + res.roDone.Load()
	if total > 0 {
		fmt.Printf("BenchmarkNetTxn%s-%d\t%d\t%.1f ns/op\n", tag, clients, total,
			float64(res.elapsed.Nanoseconds())*float64(clients)/float64(total))
	}
}

// report prints the human-readable latency table and retry counts.
func report(res *loadResult, cfg loadCfg, target string) {
	total := res.committed.Load() + res.roDone.Load()
	retried := res.attempts.Load() - total
	tbl := metrics.NewTable(fmt.Sprintf("hddload: %d clients x %d txns against %s (%.2fs, %.0f txn/s)",
		cfg.clients, cfg.txns, target, res.elapsed.Seconds(), float64(total)/res.elapsed.Seconds()),
		"workload", "count", "mean", "p50", "p99", "max")
	row := func(name string, h *metrics.Histogram) {
		tbl.AddRow(name, h.Count(), h.Mean().String(), h.Quantile(0.5).String(),
			h.Quantile(0.99).String(), h.Max().String())
	}
	row("update", &res.updateLat)
	row("read-only", &res.roLat)
	fmt.Fprint(os.Stderr, tbl.String())
	fmt.Fprintf(os.Stderr, "hddload: %d committed, %d read-only, %d aborts retried by hdd.RunCtx\n",
		res.committed.Load(), res.roDone.Load(), retried)
}

// checkDrain verifies the server leaked nothing once every load client
// closed: no open transactions server-side, no in-flight engine
// transactions, and no sessions besides the one asking. For a durable
// engine (engineName of a registry entry with a durability layer) it also
// verifies the durability counters round-trip the wire: commits were
// logged and the engine is not degraded.
func checkDrain(addr, engineName string) error {
	// One connection, so "everything drained" is sessions_open <= 1
	// regardless of how the multiplexed client would otherwise spread
	// Stats polls over its slots.
	c, err := client.Dial(addr, client.WithConns(1))
	if err != nil {
		return err
	}
	defer c.Close()
	// The load clients' sessions unwind asynchronously after Close; give
	// the server a moment before declaring a leak.
	var stats map[string]int64
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err = c.Stats()
		if err != nil {
			return err
		}
		if stats["txns_open"] == 0 && stats["active_txns"] == 0 && stats["sessions_open"] <= 1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("txns_open=%d active_txns=%d sessions_open=%d (want 0/0/<=1)",
				stats["txns_open"], stats["active_txns"], stats["sessions_open"])
		}
		time.Sleep(50 * time.Millisecond)
	}
	if entry, ok := enginereg.Lookup(engineName); ok && entry.Durable {
		if stats["wal_records"] == 0 {
			return fmt.Errorf("%s: wal_records=0 after a committed load; durability stats did not round-trip", entry.Name)
		}
		if stats["durability_degraded"] != 0 {
			return fmt.Errorf("%s: engine degraded after load", entry.Name)
		}
	}
	return nil
}

// fillValue stamps a worker/iteration-distinguishable payload.
func fillValue(v []byte, worker, i int) {
	for j := range v {
		v[j] = byte(worker*31 + i + j)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hddload: %v\n", err)
	os.Exit(1)
}
