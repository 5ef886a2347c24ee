package main

// Per-layer metrics of a traced run. Three sources, all outside the
// packages they measure: the spans of the traced phase (client, core,
// vfs and the reconciliation row), deltas of the observability plane and
// of the storage decorator's counters over that phase, and short
// isolated drives of one layer's public functions (wire codec, server
// with a no-op engine, mvstore, wal.Log) run after the load has stopped.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdd"
	"hdd/client"
	"hdd/internal/cc"
	"hdd/internal/mvstore"
	"hdd/internal/schema"
	"hdd/internal/server"
	"hdd/internal/vclock"
	"hdd/internal/wal"
	"hdd/internal/wire"
)

// fsCounters is a snapshot of the storage decorator's counters.
type fsCounters struct {
	walWrites, walWriteBytes, walSyncs, walSyncNs, otherBytes int64
}

func (fs *timedFS) counters() fsCounters {
	if fs == nil {
		return fsCounters{}
	}
	return fsCounters{fs.walWrites.Load(), fs.walWriteBytes.Load(), fs.walSyncs.Load(),
		fs.walSyncNs.Load(), fs.otherBytes.Load()}
}

func (a fsCounters) minus(b fsCounters) fsCounters {
	return fsCounters{a.walWrites - b.walWrites, a.walWriteBytes - b.walWriteBytes,
		a.walSyncs - b.walSyncs, a.walSyncNs - b.walSyncNs, a.otherBytes - b.otherBytes}
}

func (a fsCounters) plus(b fsCounters) fsCounters {
	return fsCounters{a.walWrites + b.walWrites, a.walWriteBytes + b.walWriteBytes,
		a.walSyncs + b.walSyncs, a.walSyncNs + b.walSyncNs, a.otherBytes + b.otherBytes}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stalenessProbe measures how far Protocol C reads trail commits: it
// commits a marker, then polls fresh read-only transactions until one
// sees it, and reports the time from the commit's acknowledgement to
// first visibility, in milliseconds, repeating until the deadline.
func stalenessProbe(beg hdd.Beginner, marker hdd.GranuleID, until time.Time) []float64 {
	const (
		pollEvery  = 2 * time.Millisecond
		probeEvery = 200 * time.Millisecond
	)
	var out []float64
	var buf [8]byte
	for n := uint64(1); time.Now().Before(until); n++ {
		binary.BigEndian.PutUint64(buf[:], n)
		err := hdd.Run(beg, 0, func(t hdd.Txn) error { return t.Write(marker, buf[:]) }, hdd.RetryPolicy{})
		if err != nil {
			return out
		}
		acked := time.Now()
		for seen := false; !seen && time.Now().Before(until); time.Sleep(pollEvery) {
			err := hdd.Run(beg, hdd.NoClass, func(t hdd.Txn) error {
				v, err := t.Read(marker)
				seen = err == nil && len(v) == 8 && binary.BigEndian.Uint64(v) >= n
				return err
			}, hdd.RetryPolicy{})
			if err != nil {
				return out
			}
			if seen {
				out = append(out, float64(time.Since(acked))/1e6)
			}
		}
		time.Sleep(probeEvery)
	}
	return out
}

// ---- span analysis ----

// txnAcc accumulates one logical transaction's spans.
type txnAcc struct {
	total, client, core, wal int64
	update                   bool
}

// traceStats is what the traced phase's spans reduce to.
type traceStats struct {
	clientOp [numOps]hist
	// core.call durations: begin, read by protocol, write, commit.
	coreBegin, coreWrite, coreCommit hist
	coreRead                         [protoC + 1]hist
	coreBusyNs                       int64
	netSelfNs, netSelfOps            int64
	orphans                          int64
	txns                             map[uint64]*txnAcc
	// parent is each span's parent index in the recorded array, -1 for
	// none.
	parent []int32
}

func analyse(spans []span, embedded bool) *traceStats {
	ts := &traceStats{txns: make(map[uint64]*txnAcc), parent: make([]int32, len(spans))}
	acc := func(root uint64) *txnAcc {
		a := ts.txns[root]
		if a == nil {
			a = &txnAcc{}
			ts.txns[root] = a
		}
		return a
	}
	// Pass 1: index what the later passes look up — txn spans by root,
	// client.op spans by attempt, WAL storage spans in time order.
	txnSpan := make(map[uint64]int32)
	ops := make(map[uint64][]int32)
	var storage []int32
	for i := range spans {
		s := &spans[i]
		ts.parent[i] = -1
		switch s.kind {
		case spanTxn:
			txnSpan[s.root] = int32(i)
			a := acc(s.root)
			a.total, a.update = s.end-s.start, s.update
		case spanClientOp:
			ops[s.attempt] = append(ops[s.attempt], int32(i))
		case spanVfsWrite, spanVfsSync:
			if s.wal {
				storage = append(storage, int32(i))
			}
		}
	}
	sort.Slice(storage, func(a, b int) bool { return spans[storage[a]].start < spans[storage[b]].start })
	// overlap is how much of [start,end) the WAL file was being written
	// or fsynced: the part of a commit the storage itself accounts for.
	overlap := func(start, end int64) int64 {
		i := sort.Search(len(storage), func(i int) bool { return spans[storage[i]].end > start })
		var sum int64
		for ; i < len(storage) && spans[storage[i]].start < end; i++ {
			s := &spans[storage[i]]
			sum += min(end, s.end) - max(start, s.start)
		}
		return sum
	}
	// Pass 2: durations, parents, per-transaction sums.
	childNs := make(map[int32]int64) // client.op index -> core time inside it
	for i := range spans {
		s := &spans[i]
		d := s.end - s.start
		switch s.kind {
		case spanClientOp:
			ts.clientOp[s.op].record(time.Duration(d))
			acc(s.root).client += d
			if p, ok := txnSpan[s.root]; ok {
				ts.parent[i] = p
			}
		case spanCoreCall:
			switch s.op {
			case opBegin:
				ts.coreBegin.record(time.Duration(d))
			case opRead:
				ts.coreRead[s.proto].record(time.Duration(d))
			case opWrite:
				ts.coreWrite.record(time.Duration(d))
			case opCommit:
				ts.coreCommit.record(time.Duration(d))
			}
			ts.coreBusyNs += d
			if embedded {
				// The load generator's own call: its parent is the txn.
				acc(s.root).core += d
				if p, ok := txnSpan[s.root]; ok {
					ts.parent[i] = p
				}
				continue
			}
			// Across the socket the link is the engine's transaction id
			// plus containment: the client.op of the same attempt and
			// operation whose interval encloses the engine call.
			p := int32(-1)
			for _, c := range ops[s.attempt] {
				if o := &spans[c]; o.op == s.op && o.start <= s.start && o.end >= s.end {
					p = c
					break
				}
			}
			if p < 0 {
				ts.orphans++
				continue
			}
			ts.parent[i] = p
			childNs[p] += d
			a := acc(spans[p].root)
			a.core += d
			// Only an update's commit waits for the log; a read-only
			// commit that coincides with a flush owes it nothing.
			if s.op == opCommit && a.update {
				a.wal += overlap(s.start, s.end)
			}
		}
	}
	for c, child := range childNs {
		ts.netSelfNs += spans[c].end - spans[c].start - child
		ts.netSelfOps++
	}
	return ts
}

// recon is the reconciliation row of one transaction kind: the typical
// transaction's time split into per-layer self times. The layers
// partition the txn span, so they sum to the traced latency; what the
// row is reconciled against is the untraced p50 of the reference phase.
type recon struct {
	loadgen, net, core, wal float64 // us
	n                       int
}

func (ts *traceStats) reconcile(update, embedded bool) recon {
	var accs []*txnAcc
	for _, a := range ts.txns {
		if a.total > 0 && a.update == update {
			accs = append(accs, a)
		}
	}
	sort.Slice(accs, func(i, j int) bool { return accs[i].total < accs[j].total })
	// The central fifth of the latency distribution: the transactions a
	// p50 describes.
	band := accs[len(accs)*2/5 : len(accs)*3/5]
	var r recon
	for _, a := range band {
		if embedded {
			r.loadgen += float64(a.total - a.core)
		} else {
			r.loadgen += float64(a.total - a.client)
			r.net += float64(a.client - a.core)
		}
		r.core += float64(a.core - a.wal)
		r.wal += float64(a.wal)
	}
	r.n = len(band)
	if r.n > 0 {
		k := 1e3 * float64(r.n)
		r.loadgen, r.net, r.core, r.wal = r.loadgen/k, r.net/k, r.core/k, r.wal/k
	}
	return r
}

func (r recon) sum() float64 { return r.loadgen + r.net + r.core + r.wal }

// traceFileSpans caps the span file: the first quarter-million spans of
// the traced phase (about 11 MB) are enough to follow any transaction by
// hand; the analysis above always uses every span.
const traceFileSpans = 250_000

// writeTrace writes the spans as rows of
// [id, parent, name, op, start_us, end_us]; parent 0 means none.
func writeTrace(path string, spans []span, ts *traceStats, dropped int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n := min(len(spans), traceFileSpans)
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"columns":["id","parent","name","op","start_us","end_us"],"recorded":%d,"written":%d,"dropped":%d,"spans":[`,
		len(spans), n, dropped)
	var b []byte
	for i := 0; i < n; i++ {
		s := &spans[i]
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n["...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(ts.parent[i]+1), 10)
		b = append(b, `,"`...)
		b = append(b, spanKindNames[s.kind]...)
		b = append(b, `","`...)
		if s.kind == spanClientOp || s.kind == spanCoreCall {
			b = append(b, opNames[s.op]...)
		}
		b = append(b, `",`...)
		b = strconv.AppendFloat(b, float64(s.start)/1e3, 'f', 3, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, float64(s.end)/1e3, 'f', 3, 64)
		b = append(b, ']')
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics fills a traced run's per-layer metrics.
func layerMetrics(res *result, w *Workload, st *stack, l *load, m *measured, tp *tracedPhases) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	us := func(ns float64) float64 { return ns / 1e3 }
	secs := m.seconds[groupTraced]

	spans := st.tr.recorded()
	ts := analyse(spans, w.Embedded)
	path := filepath.Join(outDir, "trace-"+w.Name+".json")
	if err := writeTrace(path, spans, ts, st.tr.dropped.Load()); err != nil {
		res.note("writing %s: %v", path, err)
	} else {
		res.note("%d spans recorded (%d dropped, %d engine calls without a client parent), first %d written to bench/%s",
			len(spans), st.tr.dropped.Load(), ts.orphans, min(len(spans), traceFileSpans), path)
	}

	// client
	for _, op := range []opKind{opBegin, opRead, opWrite, opCommit} {
		set("client.rtt_us_p50."+opNames[op], us(ts.clientOp[op].quantile(0.50)), "us")
		set("client.rtt_us_p99."+opNames[op], us(ts.clientOp[op].quantile(0.99)), "us")
	}
	set("client.net_self_us_per_op", us(ratio(float64(ts.netSelfNs), float64(ts.netSelfOps))), "us")

	// core, from spans
	set("core.begin_us_p50", us(ts.coreBegin.quantile(0.5)), "us")
	set("core.read_a_us_p50", us(ts.coreRead[protoA].quantile(0.5)), "us")
	set("core.read_b_us_p50", us(ts.coreRead[protoB].quantile(0.5)), "us")
	set("core.read_c_us_p50", us(ts.coreRead[protoC].quantile(0.5)), "us")
	set("core.write_us_p50", us(ts.coreWrite.quantile(0.5)), "us")
	set("core.commit_us_p50", us(ts.coreCommit.quantile(0.5)), "us")
	set("core.commit_us_p99", us(ts.coreCommit.quantile(0.99)), "us")
	set("core.commit_us_max", us(float64(ts.coreCommit.max)), "us")
	busy := float64(ts.coreBusyNs)
	if w.Embedded {
		busy *= embeddedSampleEvery
	}
	set("core.busy_frac", ratio(busy, secs*1e9*float64(l.lanes)), "ratio")

	// core, from the plane
	d := func(series string) float64 { return tp.plane[series] }
	var begins, commits float64
	for c := 0; c < classes; c++ {
		begins += d(fmt.Sprintf(`hdd_txn_begins_total{class="%d"}`, c))
		commits += d(fmt.Sprintf(`hdd_txn_commits_total{class="%d"}`, c))
	}
	readsA, readsB, readsC := d(`hdd_reads_total{protocol="A"}`), d(`hdd_reads_total{protocol="B"}`), d(`hdd_reads_total{protocol="C"}`)
	reads := readsA + readsB + readsC
	set("core.attempts_per_commit", ratio(begins, commits), "ratio")
	set("core.rejected_writes_per_commit", ratio(d("hdd_rejected_writes_total"), commits), "ratio")
	set("core.blocked_reads_per_read", ratio(d("hdd_blocked_reads_total"), reads), "ratio")
	// Registrations beyond Protocol B's own, per Protocol A or C read,
	// over the engine's whole life and read at quiescence, so exactly: the
	// paper's claim is that those reads leave none.
	f := tp.final
	set("core.read_registrations_per_read", ratio(f["hdd_read_registrations_total"]-f[`hdd_reads_total{protocol="B"}`],
		f[`hdd_reads_total{protocol="A"}`]+f[`hdd_reads_total{protocol="C"}`]), "ratio")
	set("core.lockfree_read_frac", ratio(d(`hdd_reads_lockfree_total{protocol="A"}`)+d(`hdd_reads_lockfree_total{protocol="C"}`), reads), "ratio")
	set("core.wall_releases_per_s", d("hdd_wall_releases_total")/secs, "1/s")
	set("core.gc_pruned_per_commit", ratio(d("hdd_gc_pruned_versions_total"), commits), "ratio")
	set("core.reaped_txns", tp.whole["hdd_reaped_txns_total"], "count")
	allTxns := commits + d(`hdd_txn_commits_total{class="ro"}`)
	// The whole process's allocations over the phase, load generator
	// included; only on embedded_mem is the engine most of them.
	set("core.allocs_per_txn", ratio(float64(tp.mallocs), allTxns), "count")
	set("core.ro_staleness_ms_p50", median(tp.staleness), "ms")

	// server, from the plane
	set("server.frames_per_flush", ratio(d("hdd_server_flushed_frames_total"), d("hdd_server_writer_flushes_total")), "ratio")
	for _, op := range []string{"read", "commit"} {
		sum := d(`hdd_server_request_seconds_sum{op="` + op + `"}`)
		cnt := d(`hdd_server_request_seconds_count{op="` + op + `"}`)
		set("server.request_us_mean."+op, ratio(sum, cnt)*1e6, "us")
	}

	// wal, from the storage decorator and the plane
	fs := tp.fs
	var syncs hist
	if st.fs != nil {
		for _, s := range st.fs.syncs {
			syncs.record(s)
		}
	}
	set("wal.fsync_us_p50", us(syncs.quantile(0.5)), "us")
	set("wal.fsync_us_p99", us(syncs.quantile(0.99)), "us")
	set("wal.sync_busy_frac", float64(fs.walSyncNs)/(secs*1e9), "ratio")
	set("wal.writes_per_sync", ratio(float64(fs.walWrites), float64(fs.walSyncs)), "ratio")
	set("wal.bytes_per_commit", ratio(float64(fs.walWriteBytes), commits), "B")
	// Everything that reached storage, snapshots included, per byte of
	// value the committed transactions wrote.
	set("wal.bytes_per_user_byte", ratio(float64(fs.walWriteBytes+fs.otherBytes), commits*valueSize), "ratio")
	set("wal.commits_per_sync", ratio(commits, d("hdd_wal_syncs_total")), "ratio")
	set("wal.snapshots", tp.whole["hdd_wal_snapshots_total"], "count")
	set("wal.recovery_s", tp.walRecoveryS, "s")
	if st.dev != nil {
		set("wal.device_fsync_us_mean", float64(st.dev.deviceFsyncMean())/1e3, "us")
	} else {
		set("wal.device_fsync_us_mean", 0, "us")
	}

	// mvstore, live
	set("mvstore.versions_per_granule_end", float64(tp.versionsEnd)/float64(classes*w.Keys), "count")

	// loadgen
	set("loadgen.lag_us_p99", us(m.lag.quantile(0.99)), "us")
	set("loadgen.over_limit_frac", ratio(float64(m.overLimit), float64(m.attempted)), "ratio")
	backlogEnd := 0
	if len(m.backlog) > 0 {
		backlogEnd = m.backlog[len(m.backlog)-1]
	}
	set("loadgen.backlog_end", float64(backlogEnd), "count")
	refTps := float64(m.main[groupRef]) / m.seconds[groupRef]
	overhead := 1 - ratio(float64(m.main[groupTraced])/secs, refTps)
	set("trace_overhead_frac", overhead, "ratio")
	if overhead > 0.05 {
		res.note("trace_overhead_frac %.3f exceeds 0.05: per-layer times of this run are inflated", overhead)
	}

	// reconciliation: per-layer self time of the typical transaction
	// against the untraced p50 of the reference phase
	for kind, name := range [numKinds]string{kindRO: "ro", kindUpdate: "update"} {
		var r recon
		// Only the kinds of the main stream have an untraced p50 to be
		// reconciled against; the others report zeros.
		if m.lat[groupRef][kind].n > 0 {
			r = ts.reconcile(kind == kindUpdate, w.Embedded)
		}
		untraced := us(m.lat[groupRef][kind].quantile(0.5))
		set("recon."+name+".loadgen_us", r.loadgen, "us")
		set("recon."+name+".net_us", r.net, "us")
		set("recon."+name+".core_us", r.core, "us")
		set("recon."+name+".wal_us", r.wal, "us")
		set("recon."+name+"_explained_frac", ratio(r.sum(), untraced), "ratio")
		set("recon."+name+"_unexplained_us", untraced-r.sum(), "us")
		res.Extra["recon."+name+"_untraced_p50_us"] = metric{Value: untraced, Unit: "us", N: int64(r.n)}
	}

	isolatedLayers(res, w)
}

// ---- isolated drives of single layers ----

func isolatedLayers(res *result, w *Workload) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	wb := wireBench(w)
	set("wire.encode_req_ns", wb.encReq, "ns")
	set("wire.decode_req_ns", wb.decReq, "ns")
	set("wire.encode_resp_ns", wb.encResp, "ns")
	set("wire.decode_resp_ns", wb.decResp, "ns")
	set("wire.bytes_per_op", wb.bytes, "B")
	set("wire.allocs_per_roundtrip", wb.allocs, "count")

	rtt, ops, err := serverNoopBench()
	if err != nil {
		res.note("server no-op drive: %v", err)
	}
	set("server.noop_rtt_us_p50", rtt, "us")
	set("server.noop_ops_per_s_d16", ops, "1/s")

	mb := mvstoreBench()
	set("mvstore.read_ns_chain8", mb.read8, "ns")
	set("mvstore.read_ns_chain64", mb.read64, "ns")
	set("mvstore.install_commit_ns", mb.installCommit, "ns")
	set("mvstore.gc_ns_per_version", mb.gcPerVersion, "ns")

	c1, c8, err := walBench()
	if err != nil {
		res.note("wal.Log drive: %v", err)
	}
	set("wal.append_ack_us_c1", c1, "us")
	set("wal.append_ack_us_c8", c8, "us")
}

type wireResult struct{ encReq, decReq, encResp, decResp, bytes, allocs float64 }

// wireBench replays the workload's own frame mix — the requests and
// responses of its update and read-only transactions, in its update
// share — through the v2 codec's four functions. The embedded workload
// sends no frames and reports zeros.
func wireBench(w *Workload) wireResult {
	if w.Embedded {
		return wireResult{}
	}
	type pair struct {
		req  wire.Request
		resp wire.Response
	}
	val := encodeValue(nil, value{Writer: 1, Seq: 1, Counter: 1}, hdd.GranuleID{})
	ok := wire.Response{Status: wire.StatusOK}
	read := func(seg int32) pair {
		return pair{wire.Request{Op: wire.OpRead, Txn: 1 << 20, Seg: seg, Key: 1234},
			wire.Response{Status: wire.StatusOK, Found: true, Value: val}}
	}
	var mix []pair
	updates, ros := 0, 0
	switch {
	case w.UpdateFrac == 1:
		updates = classes
	case w.UpdateFrac == 0:
		ros = 1
	default: // 0.75 in every mixed workload: one read-only per three updates
		updates, ros = classes, 1
	}
	for c := int32(0); c < int32(updates); c++ {
		mix = append(mix, pair{wire.Request{Op: wire.OpBegin, Class: c},
			wire.Response{Status: wire.StatusOK, Txn: 1 << 20, Class: c}})
		if c > 0 {
			mix = append(mix, read(c-1))
		}
		mix = append(mix, read(c),
			pair{wire.Request{Op: wire.OpWrite, Txn: 1 << 20, Seg: c, Key: 1234, Value: val}, ok},
			pair{wire.Request{Op: wire.OpCommit, Txn: 1 << 20}, ok})
	}
	for i := 0; i < ros; i++ {
		mix = append(mix, pair{wire.Request{Op: wire.OpBeginReadOnly},
			wire.Response{Status: wire.StatusOK, Txn: 1 << 20, Class: int32(schema.NoClass)}})
		for r := 0; r < w.ROReads; r++ {
			mix = append(mix, read(int32(r%classes)))
		}
		mix = append(mix, pair{wire.Request{Op: wire.OpCommit, Txn: 1 << 20}, ok})
	}
	for i := range mix {
		mix[i].req.Tag, mix[i].resp.Tag = uint64(i+1), uint64(i+1)
	}
	reqs := make([][]byte, len(mix))
	resps := make([][]byte, len(mix))
	var out wireResult
	for i := range mix {
		reqs[i] = wire.AppendRequest2(nil, &mix[i].req)
		resps[i] = wire.AppendResponse2(nil, mix[i].req.Op, &mix[i].resp)
		out.bytes += float64(len(reqs[i]) + len(resps[i]) + 8) // + two 4-byte frame headers
	}
	const reps = 20000
	total := float64(reps * len(mix))
	var buf []byte
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stage := func(f func(i int)) float64 {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for i := range mix {
				f(i)
			}
		}
		return float64(time.Since(start)) / total
	}
	out.encReq = stage(func(i int) { buf = wire.AppendRequest2(buf[:0], &mix[i].req) })
	out.decReq = stage(func(i int) { sinkReq, sinkErr = wire.DecodeRequestAny(reqs[i]) })
	out.encResp = stage(func(i int) { buf = wire.AppendResponse2(buf[:0], mix[i].req.Op, &mix[i].resp) })
	out.decResp = stage(func(i int) { sinkResp, sinkErr = wire.DecodeResponse2(mix[i].req.Op, resps[i]) })
	runtime.ReadMemStats(&ms1)
	out.allocs = float64(ms1.Mallocs-ms0.Mallocs) / total
	out.bytes /= float64(len(mix))
	return out
}

// Package-level sinks keep the compiler from discarding the decoders'
// results.
var (
	sinkReq   wire.Request
	sinkResp  wire.Response
	sinkErr   error
	sinkBytes []byte
)

// noopEngine is the cc.Engine stub behind server.noop_*: every call
// returns at once, so what a client measures against it is the floor of
// client + wire + session + socket.
type noopEngine struct{ ids atomic.Uint64 }

type noopTxn struct {
	id    cc.TxnID
	class schema.ClassID
}

var noopValue = make([]byte, valueSize)

func (e *noopEngine) Name() string    { return "noop" }
func (e *noopEngine) Stats() cc.Stats { return cc.Stats{} }
func (e *noopEngine) Close() error    { return nil }
func (e *noopEngine) Begin(c schema.ClassID) (cc.Txn, error) {
	return &noopTxn{id: cc.TxnID(e.ids.Add(1)), class: c}, nil
}
func (e *noopEngine) BeginReadOnly() (cc.Txn, error) { return e.Begin(schema.NoClass) }

func (t *noopTxn) ID() cc.TxnID                                { return t.id }
func (t *noopTxn) Class() schema.ClassID                       { return t.class }
func (t *noopTxn) Read(schema.GranuleID) ([]byte, error)       { return noopValue, nil }
func (t *noopTxn) ReadShared(schema.GranuleID) ([]byte, error) { return noopValue, nil }
func (t *noopTxn) Write(schema.GranuleID, []byte) error        { return nil }
func (t *noopTxn) Commit() error                               { return nil }
func (t *noopTxn) Abort() error                                { return nil }

// serverNoopBench drives single-key reads against the no-op engine
// through a real server and client: the median round trip at depth 1,
// and the throughput with 16 reads in flight.
func serverNoopBench() (rttUs, opsPerS float64, err error) {
	srv := server.New(&noopEngine{}, server.Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	defer func() {
		srv.Close()
		<-done
	}()
	c, err := client.Dial(lis.Addr().String(), client.WithConns(runtime.GOMAXPROCS(0)))
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	g := hdd.GranuleID{Segment: 0, Key: 1}

	t, err := c.Begin(0)
	if err != nil {
		return 0, 0, err
	}
	var h hist
	for i := 0; i < 4000; i++ {
		start := time.Now()
		if sinkBytes, err = t.Read(g); err != nil {
			return 0, 0, err
		}
		if i >= 500 { // the first reads warm the connection
			h.record(time.Since(start))
		}
	}
	if err := t.Commit(); err != nil {
		return 0, 0, err
	}

	const depth, window = 16, 700 * time.Millisecond
	var ops atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, err := c.Begin(0)
			for err == nil && time.Since(start) < window {
				if _, err = t.Read(g); err == nil {
					ops.Add(1)
				}
			}
			if err == nil {
				err = t.Commit()
			}
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
			}
		}()
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return 0, 0, *p
	}
	return h.quantile(0.5) / 1e3, float64(ops.Load()) / time.Since(start).Seconds(), nil
}

type mvstoreResult struct{ read8, read64, installCommit, gcPerVersion float64 }

// mvstoreBench times the version store's public calls on a store of its
// own: wait-free reads below a bound on chains of 8 and 64 committed
// versions, the install+commit pair of a Protocol B write, and GC per
// version pruned.
func mvstoreBench() mvstoreResult {
	val := make([]byte, valueSize)
	readChain := func(n int) float64 {
		s := mvstore.New()
		g := schema.GranuleID{Segment: 0, Key: 1}
		for i := 1; i <= n; i++ {
			s.InstallPending(g, vclock.Time(i*10), val)
			s.Commit(g, vclock.Time(i*10))
		}
		const reads = 400_000
		start := time.Now()
		for i := 0; i < reads; i++ {
			sinkBytes, _, _ = s.ReadCommittedBefore(g, vclock.Time((i%n+1)*10+5))
		}
		return float64(time.Since(start)) / reads
	}
	out := mvstoreResult{read8: readChain(8), read64: readChain(64)}

	const keys, installs = 4096, 120_000
	s := mvstore.New()
	start := time.Now()
	for i := 0; i < installs; i++ {
		g := schema.GranuleID{Segment: 0, Key: uint64(i % keys)}
		ts := vclock.Time(i + 1)
		if err := s.InstallChecked(g, ts, val); err == nil {
			s.Commit(g, ts)
		}
	}
	out.installCommit = float64(time.Since(start)) / installs
	start = time.Now()
	pruned := s.GC(vclock.Time(installs + 1))
	out.gcPerVersion = ratio(float64(time.Since(start)), float64(pruned))
	return out
}

// walBench times wal.Log alone on the real filesystem: from Commit to
// its wait function returning, with one committer and with eight (whose
// commits share fsyncs through group commit). Medians, in microseconds.
func walBench() (c1, c8 float64, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(outDir, "walbench-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	val := make([]byte, valueSize)
	run := func(committers, each int) (float64, error) {
		log, err := wal.Open(filepath.Join(dir, fmt.Sprintf("c%d.log", committers)), -1, wal.Options{})
		if err != nil {
			return 0, err
		}
		var mu sync.Mutex
		var h hist
		var firstErr error
		var wg sync.WaitGroup
		for c := 0; c < committers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					txn := vclock.Time(c*each + i + 1)
					start := time.Now()
					err := log.Append(&wal.Record{Kind: wal.KindWrite, Txn: txn, Seg: 0, Key: uint64(i), Value: val})
					if err == nil {
						err = log.Commit(&wal.Record{Kind: wal.KindCommit, Txn: txn})()
					}
					took := time.Since(start)
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					h.record(took)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if err := log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		return h.quantile(0.5) / 1e3, firstErr
	}
	if c1, err = run(1, 300); err != nil {
		return 0, 0, err
	}
	c8, err = run(8, 150)
	return c1, c8, err
}
