// Command hddserver serves a concurrency-control engine over TCP using the
// internal/wire protocol.
//
// Usage:
//
//	hddserver -addr 127.0.0.1:7070 -classes 3 -txn-timeout 5s
//	hddserver -engine mvto -addr 127.0.0.1:7070
//
// -engine picks any registered backend (HDD by default; see
// internal/enginereg). The engine runs over a k-class chain partition
// (class i writes segment i and may read every lower segment — the deepest
// TST-legal hierarchy, so all three protocols are exercised); the
// classical baselines ignore the partition but serve the same workloads.
// Capabilities the chosen engine lacks are reported at boot and answered
// over the wire with a typed unsupported status, never a crash. -addr-file
// writes the actual listen address to a file once the listener is up,
// which lets scripts use -addr 127.0.0.1:0 and discover the
// kernel-assigned port race-free.
//
// SIGINT/SIGTERM trigger a graceful shutdown: new transactions are
// refused, in-flight sessions get -drain-timeout to finish, stragglers are
// force-aborted, and the engine is closed.
//
// -metrics-addr opens a second HTTP listener serving the observability
// plane (DESIGN.md §13): /metrics (Prometheus text format), /healthz
// (503 once durability degrades), /debug/events (trace ring), and
// /debug/pprof. Empty (the default) disables it. -metrics-addr-file
// mirrors -addr-file for the metrics listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hdd/internal/cc"
	"hdd/internal/enginereg"
	"hdd/internal/obs"
	"hdd/internal/server"
	"hdd/internal/vclock"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "listen address (host:port; port 0 picks a free port)")
		addrFile     = flag.String("addr-file", "", "write the actual listen address here once listening")
		metricsAddr  = flag.String("metrics-addr", "", "HTTP listen address for /metrics, /healthz, /debug/events, /debug/pprof; empty disables")
		metricsFile  = flag.String("metrics-addr-file", "", "write the actual metrics listen address here once listening")
		engine       = flag.String("engine", "HDD", "backend engine: "+strings.Join(enginereg.Names(), ", "))
		classes      = flag.Int("classes", 3, "number of classes/segments in the chain partition")
		txnTimeout   = flag.Duration("txn-timeout", 5*time.Second, "engine transaction deadline (reaper force-aborts past it); 0 disables")
		wallInterval = flag.Int64("wall-interval", 256, "time-wall release interval in logical ticks")
		gcEvery      = flag.Int64("gc-every", 64, "run GC every N commits; 0 disables")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "close sessions idle for this long; 0 disables")
		maxPipeline  = flag.Int("max-pipeline", 0, "max in-flight pipelined requests per session; 0 uses the server default")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget before force-closing sessions")
		quiet        = flag.Bool("quiet", false, "suppress connection-level diagnostics")

		dataDir       = flag.String("data-dir", "", "durable state directory (snapshot + WAL); empty runs memory-only")
		snapshotBytes = flag.Int64("snapshot-bytes", 8<<20, "WAL size that triggers a background snapshot; negative disables")
	)
	flag.Parse()

	part, err := enginereg.ChainPartition(*classes)
	if err != nil {
		fatal(err)
	}
	// One plane is shared by the engine and the server, so a single
	// /metrics scrape covers both. Built unconditionally: the Stats
	// opcode reads it even with -metrics-addr unset.
	plane := obs.NewPlane()
	// With -data-dir set, the engine recovers snapshot + WAL before
	// returning, so the listener only opens on fully recovered state.
	eng, err := enginereg.Build(*engine, enginereg.Options{
		Partition:      part,
		WallInterval:   vclock.Time(*wallInterval),
		GCEveryCommits: *gcEvery,
		TxnTimeout:     *txnTimeout,
		DataDir:        *dataDir,
		SnapshotBytes:  *snapshotBytes,
		Obs:            plane,
	})
	if err != nil {
		fatal(err)
	}
	if d, ok := cc.AsDurabilityIntrospector(eng); ok {
		ds, _ := d.DurabilityState()
		counters := make(map[string]int64, len(ds.Counters))
		for _, kv := range ds.Counters {
			counters[kv.Name] = kv.Value
		}
		fmt.Fprintf(os.Stderr, "hddserver: recovered %s in %v (snapshot=%v, replayed %d records, torn tail=%v, high water %d)\n",
			*dataDir, time.Duration(counters["wal_recovery_ns"]).Round(time.Microsecond),
			counters["wal_snapshot_loaded"] == 1, counters["wal_replayed_records"],
			counters["wal_torn_tail"] == 1, counters["wal_high_water"])
	}

	opts := server.Options{IdleTimeout: *idleTimeout, MaxPipeline: *maxPipeline, Obs: plane}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	srv := server.New(eng, opts)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Bind the metrics listener before announcing boot so the single boot
	// line carries both final addresses and a scraper that reads it never
	// races the HTTP socket.
	metricsDisplay := "off"
	var ml net.Listener
	if *metricsAddr != "" {
		ml, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		metricsDisplay = ml.Addr().String()
	}
	fmt.Fprintf(os.Stderr, "hddserver: listening on %s metrics=%s — engine %s (caps: %v; %d classes, txn-timeout %v)\n",
		l.Addr(), metricsDisplay, eng.Name(), srv.Capabilities(), *classes, *txnTimeout)
	if *addrFile != "" {
		writeAddrFile(*addrFile, l.Addr().String())
	}
	if ml != nil {
		go http.Serve(ml, srv.Obs().Handler(srv.Health()))
		if *metricsFile != "" {
			writeAddrFile(*metricsFile, ml.Addr().String())
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "hddserver: %v — draining (budget %v)\n", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hddserver: drain deadline hit, sessions force-closed (%v)\n", err)
		}
		st := eng.Stats()
		fmt.Fprintf(os.Stderr, "hddserver: done — %d commits, %d aborts (%d reaped), %d sessions open\n",
			st.Commits, st.Aborts, st.ReapedTxns, srv.OpenSessions())
	}
}

// writeAddrFile publishes a bound listen address write-then-rename, so
// readers polling the file never observe a partial address.
func writeAddrFile(path, addr string) {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hddserver: %v\n", err)
	os.Exit(1)
}
