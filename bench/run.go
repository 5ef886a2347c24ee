package main

// One run of one workload: set-up (several times, for a steady setup_s),
// warm-up, the measured phases, memory, verification, and the metrics.

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

const (
	// window is the length of the windows an untraced run's measured time
	// is cut into. Every latency and the closed-loop throughput are
	// computed per window and the run reports its best window. The
	// sandbox is a few cores of a shared host; when a neighbour loads the
	// memory system a cache-missing loop here runs 20-60 % slower and a
	// system call 30-45 % (an arithmetic loop 2 %), in bursts of a fraction
	// of a second inside episodes of half a minute to three minutes, and
	// the median window of a run then moves by a quarter between runs of
	// the same code. That interference only ever makes a window worse, so
	// the best window is the closest a run gets to the program's own speed
	// (the reasoning behind taking the minimum of repeated timings): over
	// ten runs in a noisy hour it scattered by 2-7 % where the same
	// statistics over the whole run scattered by 13-290 %. Half a second
	// falls between most bursts, spans every cycle the gated metrics can
	// see (Go GC, version GC, wall releases, flush cohorts) and holds the
	// >=1000 samples a p99 needs from the slowest stream (update_durable,
	// ~2200 txn/s).
	window = 500 * time.Millisecond
	// backlogMarks is how many times, evenly spaced, an open loop notes
	// its queue length.
	backlogMarks = 8
	// warmup precedes the measured time: connections, pools, the
	// group-commit cohort and the Go heap reach steady state in it.
	warmup = 3 * time.Second
	// setups is how many times a run builds its stack before it starts
	// the load on the last one. setup_s is everything before measured
	// time — all the set-ups, the tear-downs between them, the warm-up —
	// so a set-up that grows by a tenth of a second grows setup_s by
	// nearly a second; setup_one_s (printed, not gated) is the median of
	// the single set-ups, tens of milliseconds of mostly CPU work that
	// drift by 30 % with the sandbox's CPU alone.
	setups = 9
	// minP99Samples is the fewest samples a window needs before its p99
	// is quoted without a warning.
	minP99Samples = 1000
)

type runOptions struct {
	seed    int64
	seconds int
	trace   bool
	warmup  time.Duration
	setups  int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is (max-min)/median over the run's windows; N the samples
	// behind a percentile, per window (the smallest window's count).
	Spread float64 `json:"spread,omitempty"`
	N      int64   `json:"n,omitempty"`
	// Windows holds the per-window values the metric is the best of.
	Windows []float64 `json:"windows,omitempty"`
}

// result is one run's outcome. Metrics holds exactly the metrics the
// contract asks of the run's mode (end-to-end untraced, per-layer
// traced); Extra holds what else the run prints.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// measured is what the load leaves behind, indexed by the plan's groups.
// mu guards it while the load runs; after merge it is read freely.
type measured struct {
	mu        sync.Mutex
	seconds   []float64
	lat       [][numKinds]hist
	main      []int64
	attempted int64
	failed    int64
	overLimit int64
	lag       hist
	// backlog is the main open loop's queue length at each of the plan's
	// marks.
	backlog []int
}

func newMeasured(p *plan) *measured {
	return &measured{seconds: p.seconds(), lat: make([][numKinds]hist, p.groups), main: make([]int64, p.groups)}
}

// merge collects what the recorders still hold, once the load has stopped.
func (l *load) merge() *measured {
	for _, r := range l.recorders {
		r.mu.Lock()
		r.flush()
		r.mu.Unlock()
		if r.lag != nil {
			l.m.lag.merge(r.lag)
		}
	}
	return l.m
}

// tracedPhases is what the traced seconds of a traced run add: the
// plane's, the heap's and the storage decorator's counters, summed over
// those seconds only.
type tracedPhases struct {
	plane map[string]float64
	// whole is the plane's change over the whole measured time, for
	// events too rare to sample by the second (snapshots, reaps); final
	// is the plane after the load has stopped, when its counters can be
	// read against each other exactly.
	whole, final map[string]float64
	mallocs      uint64
	fs           fsCounters
	staleness    []float64 // ms
	versionsEnd  int
	walRecoveryS float64
}

// traceOn switches the tracer on and returns the function that switches
// it off again and adds what the counters did in between.
func (tp *tracedPhases) traceOn(st *stack) (off func()) {
	p0, fs0 := st.planeSnapshot(), st.fs.counters()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st.tr.on.Store(true)
	return func() {
		st.tr.on.Store(false)
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		tp.mallocs += m1.Mallocs - m0.Mallocs
		for series, v := range st.planeSnapshot() {
			tp.plane[series] += v - p0[series]
		}
		tp.fs = tp.fs.plus(st.fs.counters().minus(fs0))
	}
}

func runWorkload(w *Workload, opt runOptions) (*result, error) {
	runStart := time.Now()
	res := &result{Workload: w.Name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Metrics: map[string]metric{}, Extra: map[string]metric{}}
	var tr *tracer
	if opt.trace {
		tr = newTracer(maxSpans)
	}
	defer spareCore(w)()

	// Set-up, timed.
	var st *stack
	var setupS []float64
	for i := 0; i < opt.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		var err error
		if st, err = buildStack(w, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()

	// The load.
	total := time.Duration(opt.seconds) * time.Second
	pl := untracedPlan(total)
	if opt.trace {
		pl = tracedPlan(total)
	}
	clients := w.Clients
	if clients == 0 {
		clients = runtime.GOMAXPROCS(0)
	}
	if w.Rate > 0 {
		clients = openLoopWorkers
	}
	l := &load{w: w, seed: opt.seed, beg: st.beg, tr: tr, plan: pl, m: newMeasured(pl), lanes: clients,
		o: newOracle(w.Keys, clients+trickleWorkers), t0: time.Now().Add(opt.warmup)}
	var wg sync.WaitGroup
	if w.Rate > 0 {
		wg.Add(1)
		go l.openLoop(NewStream(w, opt.seed, 0), clients, 0, false, -opt.warmup, &wg)
	} else {
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go l.closedLoop(i, &wg)
		}
	}
	if w.TrickleRate > 0 {
		wg.Add(1)
		go l.openLoop(NewTrickleStream(w, opt.seed, clients), trickleWorkers, clients, true, -opt.warmup, &wg)
	}

	var tp *tracedPhases
	if opt.trace {
		tp = &tracedPhases{plane: map[string]float64{}}
		stale := make(chan []float64, 1)
		go func() {
			time.Sleep(time.Until(l.t0))
			stale <- stalenessProbe(st.beg, st.markerKey(), l.t0.Add(total))
		}()
		var before map[string]float64
		for i, ph := range pl.phases {
			time.Sleep(time.Until(l.t0.Add(ph.start)))
			if i == 0 {
				before = st.planeSnapshot()
			}
			if ph.group == groupTraced {
				off := tp.traceOn(st)
				time.Sleep(time.Until(l.t0.Add(ph.end)))
				off()
			}
		}
		time.Sleep(time.Until(l.t0.Add(total)))
		tp.whole = st.planeSnapshot()
		for series, v := range before {
			tp.whole[series] -= v
		}
		tp.staleness = <-stale
	}
	time.Sleep(time.Until(l.t0.Add(total)))
	l.stop.Store(true)
	wg.Wait()
	m := l.merge()
	if tp != nil {
		tp.final = st.planeSnapshot()
	}

	// Memory: the live heap with the stack still up and loaded.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	// Verification.
	checks, failures := int64(0), int64(0)
	check := func(what string, err error) {
		checks++
		if err != nil {
			failures++
			res.note("%s: %v", what, err)
		}
	}
	n, err := verifyFinal(st.beg, l.o, m.failed)
	checks += n
	check("final state", err)
	if tp != nil {
		tp.versionsEnd = st.store().TotalVersions()
	}
	var image string
	if !w.Embedded {
		st.cl.Close()
		check("drain", st.drainCheck())
	}
	if w.Durable {
		image, err = st.crashImage()
		check("crash image", err)
	}
	closed = true
	check("shutdown", st.close())
	if st.dev != nil {
		res.Extra["wal.device_fsync_us_mean"] = metric{Value: float64(st.dev.deviceFsyncMean()) / 1e3, Unit: "us"}
	}
	if image != "" {
		took, n, err := verifyRecovery(w, image, l.o, m.failed)
		checks += n
		check("recovery", err)
		res.Extra["wal.recovery_s"] = metric{Value: took.Seconds(), Unit: "s"}
		if tp != nil {
			tp.walRecoveryS = took.Seconds()
		}
	}
	if bad := l.o.bad.Load(); bad > 0 {
		failures += bad
		res.note("%d verification failures, first: %s", bad, *l.o.firstBad.Load())
	}
	if l.firstErr != nil {
		res.note("first transaction error: %v", l.firstErr)
	}
	res.Attempted = m.attempted + checks
	res.Failed = m.failed + failures
	res.Correct = res.Failed == 0
	res.Extra["fail_frac"] = metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"}

	if opt.trace {
		layerMetrics(res, w, st, l, m, tp)
		return res, nil
	}
	endToEnd(res, w, m, l.t0.Sub(runStart).Seconds(), float64(ms.HeapInuse)/(1<<20))
	res.Extra["setup_one_s"] = metric{Value: median(setupS), Unit: "s"}
	return res, nil
}

// spareCore takes one core away from a workload that asks for it, for
// the length of its run, and returns the function that gives it back.
// read_pipelined asks: its closed loop never waits for anything but the
// program, the kernel's loopback path and the hand-offs between Go's Ps,
// so on every core it leaves no room for whatever else runs on the
// machine — kernel threads, the harness that started the benchmark, a
// neighbour's burst on the host — and loses more than that work's share:
// beside a one-core hog it lost 38 % of its throughput on two cores and
// nothing on one, and its best window scattered half as much over
// alternating runs. A one-core machine has none to spare.
func spareCore(w *Workload) (restore func()) {
	n := runtime.GOMAXPROCS(0)
	if !w.SpareCore || n < 2 {
		return func() {}
	}
	runtime.GOMAXPROCS(n - 1)
	return func() { runtime.GOMAXPROCS(n) }
}

// pooled merges a group's per-kind latencies: the main stream as its
// user sees it.
func (m *measured) pooled(group int) *hist {
	h := new(hist)
	for k := range m.lat[group] {
		h.merge(&m.lat[group][k])
	}
	return h
}

// endToEnd fills the end-to-end metrics of an untraced run. Each latency
// and the closed-loop throughput is its best window's value (see window);
// the same statistic over the whole measured time is printed beside it as
// <metric>_run, so that what the best window leaves out can be seen.
func endToEnd(res *result, w *Workload, m *measured, setupS, memMB float64) {
	windows := len(m.main)
	perWindow := func(unit string, higher bool, f func(i int) (float64, int64)) metric {
		v := make([]float64, windows)
		minN := int64(-1)
		for i := range v {
			var n int64
			v[i], n = f(i)
			if minN < 0 || n < minN {
				minN = n
			}
		}
		best := v[0]
		for _, x := range v {
			if higher {
				best = max(best, x)
			} else {
				best = min(best, x)
			}
		}
		return metric{Value: best, Unit: unit, Spread: windowSpread(v), N: minN, Windows: v}
	}
	// The gated tail is p95: p99 is printed beside it, but drifts by a
	// quarter between sets of runs on update_durable, where it counts
	// flush cycles waited.
	quantiles := []struct {
		name  string
		q     float64
		gated bool
	}{{"p50", 0.50, true}, {"p95", 0.95, true}, {"p99", 0.99, false}}

	tps := perWindow("1/s", true, func(i int) (float64, int64) { return float64(m.main[i]) / m.seconds[i], m.main[i] })
	var committed int64
	var seconds float64
	for i := range m.main {
		committed += m.main[i]
		seconds += m.seconds[i]
	}
	res.Extra["txn_per_s_run"] = metric{Value: float64(committed) / seconds, Unit: "1/s", N: committed}
	if w.Rate > 0 {
		// An open loop delivers its arrival rate or fails: the count in one
		// window samples the Poisson schedule, not the system, so the
		// throughput is the whole run's.
		tps.Value = res.Extra["txn_per_s_run"].Value
	}
	res.Metrics["txn_per_s"] = tps

	pools := make([]*hist, windows)
	run := new(hist)
	for i := range pools {
		pools[i] = m.pooled(i)
		run.merge(pools[i])
	}
	for _, q := range quantiles {
		m := perWindow("us", false, func(i int) (float64, int64) {
			return pools[i].quantile(q.q) / 1e3, pools[i].n
		})
		if q.gated {
			res.Metrics["txn_"+q.name+"_us"] = m
		} else {
			res.Extra["txn_"+q.name+"_us"] = m
		}
		res.Extra["txn_"+q.name+"_us_run"] = metric{Value: run.quantile(q.q) / 1e3, Unit: "us", N: run.n}
	}
	if n := res.Extra["txn_p99_us"].N; n < minP99Samples {
		res.note("txn_p99_us rests on %d samples in its smallest window (< %d)", n, minP99Samples)
	}
	res.Metrics["mem_mb"] = metric{Value: memMB, Unit: "MiB"}
	res.Metrics["setup_s"] = metric{Value: setupS, Unit: "s"}

	// Printed but not declared in BENCHMARK.json: the split by
	// transaction kind where the main stream has both, and the
	// load generator's own health on the open loop.
	if w.UpdateFrac > 0 && w.UpdateFrac < 1 {
		for kind, name := range [numKinds]string{kindRO: "ro", kindUpdate: "update"} {
			for _, q := range quantiles {
				res.Extra[name+"_"+q.name+"_us"] = perWindow("us", false, func(i int) (float64, int64) {
					return m.lat[i][kind].quantile(q.q) / 1e3, m.lat[i][kind].n
				})
			}
		}
	}
	if w.UpdateFrac == 0 {
		res.Extra["read_ops_per_s"] = metric{Value: tps.Value * float64(w.ROReads), Unit: "1/s", Spread: tps.Spread}
	}
	if w.Rate > 0 {
		res.Extra["loadgen.lag_us_p99"] = metric{Value: m.lag.quantile(0.99) / 1e3, Unit: "us", N: m.lag.n}
		res.Extra["loadgen.over_limit_frac"] = metric{Value: float64(m.overLimit) / float64(m.attempted), Unit: "ratio"}
		for i, b := range m.backlog {
			res.Extra[fmt.Sprintf("loadgen.backlog_w%d", i+1)] = metric{Value: float64(b), Unit: "count"}
		}
	}
}
