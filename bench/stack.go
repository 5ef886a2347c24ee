package main

// The system under test, built the way cmd/hddserver builds it: the HDD
// engine from internal/enginereg over the 3-class chain partition with
// the server's defaults, an internal/server on a real loopback TCP
// listener, and the public client package on the other side — all in
// this one process. The embedded workload stops at the public hdd
// package. Building the stack, preloading every key once and advancing
// the time walls past the preload is the benchmark's set-up, timed as
// setup_s.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hdd"
	"hdd/client"
	"hdd/internal/cc"
	"hdd/internal/enginereg"
	"hdd/internal/mvstore"
	"hdd/internal/obs"
	"hdd/internal/server"
	"hdd/internal/vfs"
)

// Engine settings: cmd/hddserver's flag defaults, except SnapshotBytes,
// lowered from 8 MiB so that the slowest durable workload (update_durable,
// ~1750 updates/s at 114 WAL bytes each) completes at least five
// snapshot cycles in a 24 s run.
const (
	wallInterval  = 256
	gcEvery       = 64
	txnTimeout    = 5 * time.Second
	snapshotBytes = 768 << 10
	// walFlushInterval 0 is the adaptive group-commit window.
	walFlushInterval = 0
)

// outDir receives everything the benchmark writes: span files, result
// files and the durable workloads' data directories. The command runs
// with bench/ as its working directory (go run -C bench .).
const outDir = "out"

// stack is one built system under test.
type stack struct {
	w     *Workload
	plane *obs.Plane
	// eng is the engine itself; served is what the server (or, embedded,
	// the load) calls — the tracing decorator around eng in a traced run.
	eng    cc.Engine
	served cc.Engine
	dev    *flooredFS // the storage model; nil unless durable
	fs     *timedFS   // nil unless traced and durable
	tr     *tracer    // nil unless traced

	dataDir   string
	srv       *server.Server
	addr      string
	serveDone chan error
	cl        *client.Client

	// beg is the Beginner the load drives: the client, or the embedded
	// engine.
	beg hdd.Beginner
}

func engineOptions(w *Workload, dir string, plane *obs.Plane, fs vfs.FS) (enginereg.Options, error) {
	part, err := enginereg.ChainPartition(classes)
	if err != nil {
		return enginereg.Options{}, err
	}
	o := enginereg.Options{Partition: part, WallInterval: wallInterval,
		GCEveryCommits: gcEvery, TxnTimeout: txnTimeout, Obs: plane}
	if w.Durable {
		o.DataDir = dir
		o.WALFlushInterval = walFlushInterval
		o.SnapshotBytes = snapshotBytes
		o.FS = fs
	}
	return o, nil
}

// buildStack builds, boots and preloads one stack. tr is nil for an
// untraced run, in which case no tracing decorator is installed (the
// storage model of device.go is part of every durable stack).
func buildStack(w *Workload, tr *tracer) (s *stack, err error) {
	s = &stack{w: w, tr: tr, plane: obs.NewPlane()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var fs vfs.FS
	if w.Durable {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if s.dataDir, err = os.MkdirTemp(outDir, "data-"+w.Name+"-"); err != nil {
			return nil, err
		}
		s.dev = &flooredFS{FS: vfs.OS{}}
		fs = s.dev
		if tr != nil {
			s.fs = &timedFS{FS: fs, tr: tr}
			fs = s.fs
		}
	}
	opts, err := engineOptions(w, s.dataDir, s.plane, fs)
	if err != nil {
		return nil, err
	}
	if w.Embedded {
		// The embedded workload goes through the public package, as an
		// application would.
		e, err := hdd.NewEngine(hdd.Config{Partition: opts.Partition, WallInterval: opts.WallInterval,
			GCEveryCommits: opts.GCEveryCommits, TxnTimeout: opts.TxnTimeout, Obs: opts.Obs})
		if err != nil {
			return nil, err
		}
		s.eng, s.served, s.beg = e, e, e
		return s, s.preload()
	}
	if s.eng, err = enginereg.Build("HDD", opts); err != nil {
		return nil, err
	}
	s.served = s.eng
	if tr != nil {
		s.served = &tracedEngine{inner: s.eng, tr: tr, part: opts.Partition}
	}
	s.srv = server.New(s.served, server.Options{Obs: s.plane})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = l.Addr().String()
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- s.srv.Serve(l) }()
	if s.cl, err = client.Dial(s.addr, client.WithConns(runtime.GOMAXPROCS(0))); err != nil {
		return nil, err
	}
	if v := s.cl.ProtocolVersion(); v != 2 {
		return nil, fmt.Errorf("client negotiated protocol v%d, want v2", v)
	}
	s.beg = s.cl
	return s, s.preload()
}

// pacerKey and markerKey are segment-0 keys outside every workload's key
// range: the first paces the walls during set-up, the second carries the
// staleness probe's marker.
func (s *stack) pacerKey() hdd.GranuleID  { return hdd.GranuleID{Segment: 0, Key: s.w.Keys} }
func (s *stack) markerKey() hdd.GranuleID { return hdd.GranuleID{Segment: 0, Key: s.w.Keys + 1} }

// preload writes every key of every segment once (counter 0), then
// advances the time walls until a fresh Protocol C transaction sees the
// preload in every segment: from then on no read of any protocol can
// legitimately find a key missing.
func (s *stack) preload() error {
	var buf []byte
	for c := 0; c < classes; c++ {
		err := hdd.Run(s.beg, hdd.ClassID(c), func(t hdd.Txn) error {
			return writeKeys(t, hdd.SegmentID(c), s.w.Keys, func(g hdd.GranuleID) []byte {
				buf = encodeValue(buf, value{Writer: preloader}, g)
				return buf
			})
		}, hdd.RetryPolicy{})
		if err != nil {
			return fmt.Errorf("preloading segment %d: %w", c, err)
		}
	}
	// Walls are released by update-transaction completions once
	// wallInterval logical ticks have passed; read-only transactions tick
	// the clock without costing an fsync.
	for round := 0; round < 200; round++ {
		for i := 0; i < wallInterval/4; i++ {
			if err := hdd.Run(s.beg, hdd.NoClass, func(hdd.Txn) error { return nil }, hdd.RetryPolicy{}); err != nil {
				return err
			}
		}
		err := hdd.Run(s.beg, 0, func(t hdd.Txn) error { return t.Write(s.pacerKey(), []byte{byte(round)}) }, hdd.RetryPolicy{})
		if err != nil {
			return err
		}
		visible := true
		err = hdd.Run(s.beg, hdd.NoClass, func(t hdd.Txn) error {
			for c := 0; c < classes && visible; c++ {
				v, err := t.Read(hdd.GranuleID{Segment: hdd.SegmentID(c), Key: s.w.Keys - 1})
				if err != nil {
					return err
				}
				visible = v != nil
			}
			return nil
		}, hdd.RetryPolicy{})
		if err != nil {
			return err
		}
		if visible {
			return nil
		}
	}
	return errors.New("time walls never advanced past the preload")
}

// writeKeys writes keys 0..n-1 of seg inside t: batched (one round trip
// per 1024 writes) over the network, one call per key embedded.
func writeKeys(t hdd.Txn, seg hdd.SegmentID, n uint64, val func(hdd.GranuleID) []byte) error {
	ct, remote := t.(*client.Txn)
	var b client.Batch
	for k := uint64(0); k < n; k++ {
		g := hdd.GranuleID{Segment: seg, Key: k}
		if !remote {
			if err := t.Write(g, val(g)); err != nil {
				return err
			}
			continue
		}
		b.Write(g, bytes.Clone(val(g)))
		if b.Len() == 1024 || k == n-1 {
			if _, err := ct.Do(&b); err != nil {
				return err
			}
			b.Reset()
		}
	}
	return nil
}

// readKeys reads keys 0..n-1 of seg inside t and hands each value to
// each, batched over the network like writeKeys.
func readKeys(t hdd.Txn, seg hdd.SegmentID, n uint64, each func(hdd.GranuleID, []byte)) error {
	ct, remote := t.(*client.Txn)
	var b client.Batch
	for k := uint64(0); k < n; k++ {
		g := hdd.GranuleID{Segment: seg, Key: k}
		if !remote {
			v, err := t.Read(g)
			if err != nil {
				return err
			}
			each(g, v)
			continue
		}
		b.Read(g)
		if b.Len() == 1024 || k == n-1 {
			res, err := ct.Do(&b)
			if err != nil {
				return err
			}
			first := k + 1 - uint64(len(res))
			for i, r := range res {
				each(hdd.GranuleID{Segment: seg, Key: first + uint64(i)}, r.Value)
			}
			b.Reset()
		}
	}
	return nil
}

// verifyFinal reads every key through a Protocol B read (the current
// committed state) and checks its counter against the acknowledged
// commits: equal when no transaction's outcome is unknown, otherwise at
// most unknown above. It returns the number of keys checked.
func verifyFinal(beg hdd.Beginner, o *oracle, unknown int64) (int64, error) {
	var checked int64
	for c := 0; c < classes; c++ {
		err := hdd.Run(beg, hdd.ClassID(c), func(t hdd.Txn) error {
			return readKeys(t, hdd.SegmentID(c), o.keys, func(g hdd.GranuleID, b []byte) {
				checked++
				v, ok := o.check(b, g)
				if !ok {
					return
				}
				acked := o.acked[o.slot(g)].Load()
				if v.Counter < acked || v.Counter > acked+uint64(unknown) {
					o.fail("%v ends at counter %d with %d commits acknowledged", g, v.Counter, acked)
				}
			})
		}, hdd.RetryPolicy{})
		if err != nil {
			return checked, fmt.Errorf("final read of segment %d: %w", c, err)
		}
	}
	return checked, nil
}

// drainCheck is the networked workloads' leak check, taken through a
// fresh one-connection client after the load's client has closed: no
// transaction open in any session or in the engine, and no session left
// but the checker's own.
func (s *stack) drainCheck() error {
	c, err := client.Dial(s.addr, client.WithConns(1))
	if err != nil {
		return err
	}
	defer c.Close()
	var st map[string]int64
	// Session teardown runs on the server's goroutines after the load
	// client's sockets close; give it a moment.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st, err = c.Stats(); err != nil {
			return err
		}
		if (st["txns_open"] == 0 && st["active_txns"] == 0 && st["sessions_open"] <= 1) || time.Now().After(deadline) {
			break
		}
	}
	if st["txns_open"] != 0 || st["active_txns"] != 0 || st["sessions_open"] > 1 {
		return fmt.Errorf("server not drained: txns_open=%d active_txns=%d sessions_open=%d",
			st["txns_open"], st["active_txns"], st["sessions_open"])
	}
	if st["reaped_txns"] != 0 {
		return fmt.Errorf("%d transactions were reaped", st["reaped_txns"])
	}
	return nil
}

// crashImage copies the quiescent data directory: what a crash at this
// instant would leave behind (every acknowledged commit was fsynced
// before its acknowledgement; the copy may also carry unsynced advisory
// records, which recovery tolerates). The engine's own shutdown would
// instead checkpoint and leave an empty log, and the recovery check
// would then never replay a record.
func (s *stack) crashImage() (string, error) {
	// A background snapshot rewrites both files; wait until none can be
	// running or due (the log is below the trigger and no longer grows).
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		ds, _ := s.eng.(cc.DurabilityIntrospector).DurabilityState()
		var logBytes int64
		for _, kv := range ds.Counters {
			if kv.Name == "wal_log_bytes" {
				logBytes = kv.Value
			}
		}
		if logBytes < snapshotBytes {
			break
		}
		if time.Now().After(deadline) {
			return "", errors.New("background snapshot did not finish")
		}
	}
	dst := s.dataDir + ".crash"
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	for _, name := range []string{"snapshot", "wal.log"} {
		src, err := os.Open(filepath.Join(s.dataDir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return "", err
		}
		out, err := os.Create(filepath.Join(dst, name))
		if err == nil {
			_, err = io.Copy(out, src)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		src.Close()
		if err != nil {
			return "", err
		}
	}
	return dst, nil
}

// verifyRecovery reopens an engine on the crash image and checks that
// every key's last acknowledged commit survived. It returns how long
// recovery (snapshot load + WAL replay) took.
func verifyRecovery(w *Workload, dir string, o *oracle, unknown int64) (time.Duration, int64, error) {
	defer os.RemoveAll(dir)
	opts, err := engineOptions(w, dir, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	eng, err := enginereg.Build("HDD", opts)
	if err != nil {
		return 0, 0, fmt.Errorf("reopening %s: %w", dir, err)
	}
	took := time.Since(start)
	defer eng.Close()
	checked, err := verifyFinal(eng, o, unknown)
	return took, checked, err
}

// close shuts the stack down (client, then a graceful server drain,
// which closes the engine) and removes its data directory.
func (s *stack) close() error {
	var err error
	if s.cl != nil {
		s.cl.Close()
	}
	switch {
	case s.srv != nil:
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.srv.Shutdown(ctx)
		cancel()
		if s.serveDone != nil {
			<-s.serveDone
		}
	case s.eng != nil:
		err = s.eng.Close()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
	return err
}

// store returns the live engine's version store.
func (s *stack) store() *mvstore.Store {
	return s.eng.(interface{ Store() *mvstore.Store }).Store()
}

// planeSnapshot reads every series of the stack's observability plane by
// rendering the Prometheus exposition and parsing it back: the same
// numbers an operator scraping /metrics sees, from outside the packages
// that own them.
func (s *stack) planeSnapshot() map[string]float64 {
	var buf bytes.Buffer
	s.plane.Reg.WritePrometheus(&buf)
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
