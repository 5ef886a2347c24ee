package main

// The -pipeline mode: a read-heavy sweep over pipeline depths. Where the
// closed-loop mode measures end-to-end transaction latency, this mode
// measures what protocol v2 actually buys — how many concurrent in-flight
// operations a small fixed connection set can sustain. Depth 1 is the
// classic one-round-trip-at-a-time client; depth D keeps D readers in
// flight over the same multiplexed sockets, so responses pipeline and the
// server's frame writer coalesces them into large writes.
//
// Each depth emits one bench line,
//
//	BenchmarkNetPipelineDepth<D>-<conns>  <ops>  <ns/op> ns/op
//
// where ns/op is aggregate wall time per completed read (elapsed/ops) —
// the inverse of throughput, so benchjson's ops_per_sec field is directly
// comparable across depths. A side-by-side table goes to stderr and,
// with -pipeline-out, a machine-readable comparison artifact to disk.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"hdd"
	"hdd/client"
	"hdd/internal/metrics"
)

// pipelineRenewEvery bounds read-only snapshot age during the sweep: each
// reader commits and re-begins its transaction every this many reads so
// long sweeps never pin walls or GC.
const pipelineRenewEvery = 128

// depthResult is one depth's aggregate, serialized into the comparison
// artifact.
type depthResult struct {
	Depth     int     `json:"depth"`
	Conns     int     `json:"conns"`
	Ops       int64   `json:"ops"`
	ElapsedNs int64   `json:"elapsed_ns"`
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// Speedup is this depth's throughput relative to the first depth in
	// the sweep (conventionally depth 1).
	Speedup float64 `json:"speedup_vs_first"`
}

// runPipelineSweep seeds the keyspace, then measures each depth against a
// fresh client. Returns false on any client error — a protocol error at
// any depth fails the sweep.
func runPipelineSweep(ctx context.Context, addr string, cfg loadCfg, depths []int, conns int, outPath string) bool {
	if err := seedKeys(ctx, addr, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hddload: pipeline seed: %v\n", err)
		return false
	}
	var results []depthResult
	for _, d := range depths {
		res, err := measureDepth(ctx, addr, cfg, d, conns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hddload: pipeline depth %d: %v\n", d, err)
			return false
		}
		results = append(results, res)
	}
	for i := range results {
		results[i].Speedup = results[i].OpsPerSec / results[0].OpsPerSec
	}

	for _, r := range results {
		fmt.Printf("BenchmarkNetPipelineDepth%d-%d\t%d\t%.1f ns/op\n",
			r.Depth, r.Conns, r.Ops, r.NsPerOp)
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("hddload: pipelined read sweep against %s (%d conns, %d reads/worker)",
			addr, conns, cfg.txns),
		"depth", "ops", "ops/sec", "speedup")
	for _, r := range results {
		tbl.AddRow(fmt.Sprintf("%d", r.Depth), r.Ops,
			fmt.Sprintf("%.0f", r.OpsPerSec), fmt.Sprintf("%.2fx", r.Speedup))
	}
	fmt.Fprint(os.Stderr, tbl.String())

	if outPath != "" {
		enc, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "hddload: pipeline artifact: %v\n", err)
			return false
		}
		if err := os.WriteFile(outPath, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hddload: pipeline artifact: %v\n", err)
			return false
		}
		fmt.Fprintf(os.Stderr, "hddload: wrote pipeline comparison to %s\n", outPath)
	}
	return true
}

// seedKeys writes every key in segment 0 once, in batches, so the sweep's
// reads hit existing granules.
func seedKeys(ctx context.Context, addr string, cfg loadCfg) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	val := make([]byte, cfg.valSize)
	for start := uint64(0); start < cfg.keys; start += 64 {
		end := start + 64
		if end > cfg.keys {
			end = cfg.keys
		}
		err := hdd.RunCtx(ctx, c, 0, func(t hdd.Txn) error {
			ct, ok := t.(*client.Txn)
			if !ok {
				return fmt.Errorf("unexpected transaction type %T", t)
			}
			var b client.Batch
			for k := start; k < end; k++ {
				fillValue(val, int(k), 0)
				b.Write(hdd.GranuleID{Segment: 0, Key: k}, val)
			}
			_, err := ct.Do(&b)
			return err
		}, hdd.RetryPolicy{MaxAttempts: 10})
		if err != nil {
			return err
		}
	}
	return nil
}

// measureDepth runs depth concurrent readers over one multiplexed client
// and reports the aggregate throughput.
func measureDepth(ctx context.Context, addr string, cfg loadCfg, depth, conns int) (depthResult, error) {
	c, err := client.Dial(addr, client.WithConns(conns))
	if err != nil {
		return depthResult{}, err
	}
	defer c.Close()
	if v := c.ProtocolVersion(); v != 2 {
		return depthResult{}, fmt.Errorf("server negotiated protocol %d; the pipeline sweep needs v2", v)
	}

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	start := time.Now()
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			var tx hdd.Txn
			defer func() {
				if tx != nil {
					tx.Abort()
				}
			}()
			for i := 0; i < cfg.txns; i++ {
				if ctx.Err() != nil {
					fail(ctx.Err())
					return
				}
				if i%pipelineRenewEvery == 0 {
					if tx != nil {
						if err := tx.Commit(); err != nil {
							fail(fmt.Errorf("worker %d: renew commit: %w", w, err))
							return
						}
					}
					// Class-0 transactions, not read-only ones: a read-only
					// snapshot is wall-bounded (Protocol C) and could
					// legitimately predate the seed, while a class's reads in
					// its own write segment are current (Protocol B) — so the
					// missing-key assertion below stays sound.
					var err error
					tx, err = c.Begin(0)
					if err != nil {
						fail(fmt.Errorf("worker %d: begin: %w", w, err))
						return
					}
				}
				key := rng.Uint64() % cfg.keys
				v, err := tx.Read(hdd.GranuleID{Segment: 0, Key: key})
				if err != nil {
					fail(fmt.Errorf("worker %d read %d: %w", w, i, err))
					return
				}
				if v == nil {
					fail(fmt.Errorf("worker %d: key %d missing after seed", w, key))
					return
				}
			}
			if err := tx.Commit(); err != nil {
				fail(fmt.Errorf("worker %d: final commit: %w", w, err))
				return
			}
			tx = nil
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if first != nil {
		return depthResult{}, first
	}
	ops := int64(depth) * int64(cfg.txns)
	nsPerOp := float64(elapsed.Nanoseconds()) / float64(ops)
	return depthResult{
		Depth:     depth,
		Conns:     conns,
		Ops:       ops,
		ElapsedNs: elapsed.Nanoseconds(),
		NsPerOp:   nsPerOp,
		OpsPerSec: 1e9 / nsPerOp,
	}, nil
}
