package main

// The load generator: closed-loop clients, the open-loop dispatcher with
// its bounded worker pool, the transaction bodies, and per-window
// latency recording.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hdd"
)

const (
	// txnDeadline bounds one logical transaction, retries included: a
	// transaction that is not acknowledged within it has failed.
	txnDeadline = time.Second
	// latencyLimit is mixed_contended's limit on txn_p99_us;
	// loadgen.over_limit_frac is the share of its transactions above it.
	latencyLimit = 20 * time.Millisecond
	// openLoopWorkers bounds the open loop's in-flight transactions.
	openLoopWorkers = 64
	// trickleWorkers bounds the trickle's: one of its transactions takes
	// about a tenth of its 10 ms period.
	trickleWorkers = 2
	// embeddedSampleEvery thins the embedded workload's trace: its
	// transactions take microseconds, so timing every call of every one
	// would measure the tracer.
	embeddedSampleEvery = 32
)

// Transaction kinds, the index of every per-kind array.
const (
	kindRO = iota
	kindUpdate
	numKinds
)

// phase is one measured interval of a run, as offsets from its t0.
// Phases that share a group are measured together: an untraced run has
// one phase per window, each its own group; a traced run alternates
// one-second phases between group 0 (tracer off: the untraced reference)
// and group 1 (tracer on), so that drift over the run — snapshot cycles,
// chain growth, heap size — lands on both sides alike.
type phase struct {
	start, end time.Duration
	group      int
}

// plan is a run's measured time: phases of one length (the last may be
// cut short by the end of the run), back to back from offset 0.
type plan struct {
	phases []phase
	slice  time.Duration
	groups int
	// marks are the instants at which the open loop notes its backlog.
	marks []time.Duration
}

func (p *plan) end() time.Duration { return p.phases[len(p.phases)-1].end }

// seconds returns each group's total measured time.
func (p *plan) seconds() []float64 {
	out := make([]float64, p.groups)
	for _, ph := range p.phases {
		out[ph.group] += (ph.end - ph.start).Seconds()
	}
	return out
}

// untracedPlan cuts the measured time (whole seconds) into windows, each
// its own group, and marks the backlog at every eighth of it.
func untracedPlan(total time.Duration) *plan {
	n := int(total / window)
	p := &plan{groups: n, slice: window}
	for i := 0; i < n; i++ {
		p.phases = append(p.phases, phase{time.Duration(i) * window, time.Duration(i+1) * window, i})
	}
	for i := 1; i <= backlogMarks; i++ {
		p.marks = append(p.marks, total*time.Duration(i)/backlogMarks)
	}
	return p
}

// Groups of a traced run.
const (
	groupRef = iota
	groupTraced
)

// tracedPlan alternates reference and traced seconds.
func tracedPlan(total time.Duration) *plan {
	p := &plan{groups: 2, slice: time.Second, marks: []time.Duration{total}}
	for i := 0; time.Duration(i)*time.Second < total; i++ {
		start := time.Duration(i) * time.Second
		p.phases = append(p.phases, phase{start, min(start+time.Second, total), i % 2})
	}
	return p
}

// recorder is one lane's (or one open loop's) private tally of the group
// it is currently in: recording touches nothing shared, and the tally
// moves into the load's measured table whenever the group changes — twice
// a second. Per-lane tables of every window's histograms would instead
// put tens of megabytes of the benchmark's own state into mem_mb.
type recorder struct {
	mu   sync.Mutex // an open loop's workers share one recorder
	plan *plan
	into *measured
	cur  int // the group tallied; -1 before the first transaction
	// lat and main hold the main stream only — the trickle is in no
	// end-to-end metric: latencies by kind, and committed transactions
	// (the txn_per_s numerator). attempted and failed count every
	// transaction, the trickle's too.
	lat                                [numKinds]hist
	main, attempted, failed, overLimit int64
	lag                                *hist // open loop only: dispatch time minus due time
}

// groupOf returns the group of the phase an instant falls in, or -1
// (warm-up, or past the end).
func (p *plan) groupOf(at time.Duration) int {
	if at < 0 || at >= p.end() {
		return -1
	}
	return p.phases[at/p.slice].group
}

// done records one finished transaction. from is the instant its
// latency counts from, and decides its phase: a transaction due inside a
// phase counts there however late it finishes, so a backlog at the end
// of the run cannot hide its slowest members.
func (r *recorder) done(kind int, trickle bool, from, end time.Duration, err error) {
	i := r.plan.groupOf(from)
	if i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i != r.cur {
		r.flush()
		r.cur = i
	}
	r.attempted++
	lat := end - from
	if err != nil || lat > txnDeadline {
		r.failed++
		return
	}
	if trickle {
		return
	}
	r.lat[kind].record(lat)
	r.main++
	if lat > latencyLimit {
		r.overLimit++
	}
}

// flush moves the tally into the measured table. The caller holds r.mu.
func (r *recorder) flush() {
	if r.cur < 0 {
		return
	}
	m := r.into
	m.mu.Lock()
	for k := range r.lat {
		m.lat[r.cur][k].merge(&r.lat[k])
	}
	m.main[r.cur] += r.main
	m.attempted += r.attempted
	m.failed += r.failed
	m.overLimit += r.overLimit
	m.mu.Unlock()
	r.lat = [numKinds]hist{}
	r.main, r.attempted, r.failed, r.overLimit = 0, 0, 0, 0
	r.cur = -1
}

// load is one run's shared load-generation state.
type load struct {
	w    *Workload
	seed int64
	beg  hdd.Beginner
	o    *oracle
	tr   *tracer // nil in an untraced run
	t0   time.Time
	stop atomic.Bool
	plan *plan
	// lanes is how many main-stream transactions can be in flight.
	lanes int

	// m is where the recorders' tallies end up.
	m *measured

	mu        sync.Mutex
	recorders []*recorder
	firstErr  error
}

func (l *load) since() time.Duration { return time.Since(l.t0) }

func (l *load) newRecorder() *recorder {
	r := &recorder{plan: l.plan, into: l.m, cur: -1}
	l.mu.Lock()
	l.recorders = append(l.recorders, r)
	l.mu.Unlock()
	return r
}

func (l *load) noteErr(err error) {
	l.mu.Lock()
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.mu.Unlock()
}

// lane is one transaction-executing goroutine's state: its writer
// identity, its recorder, and its view of the public API (the plain
// Beginner, or the span-recording one while the tracer is on).
type lane struct {
	l       *load
	id      int
	w       *writer
	rec     *recorder
	trickle bool
	traced  *tracedBeginner
	seq     uint64
}

func (l *load) newLane(id int, trickle bool, rec *recorder) *lane {
	ln := &lane{l: l, id: id, w: l.o.writer(id), rec: rec, trickle: trickle}
	if l.tr != nil {
		kind := spanClientOp
		if l.w.Embedded {
			kind = spanCoreCall
		}
		ln.traced = &tracedBeginner{inner: l.beg, tr: l.tr, kind: kind}
	}
	return ln
}

// run executes one generated transaction through the retry runner and
// records it. from is the instant its latency counts from.
func (ln *lane) run(spec *TxnSpec, from time.Duration) {
	l := ln.l
	beg := l.beg
	tracing := ln.traced != nil && l.tr.on.Load()
	if tracing {
		ln.seq++
		ln.traced.root = uint64(ln.id)<<40 | ln.seq
		ln.traced.sample = !l.w.Embedded || ln.seq%embeddedSampleEvery == 0
		tracing = ln.traced.sample
		beg = ln.traced
	}
	var start int64
	if tracing {
		// The txn span starts when the transaction was due, so that on the
		// open loop the time it queued behind the dispatcher and the
		// worker pool is part of it (and of the load generator's self
		// time), as it is of the measured latency.
		start = l.tr.now() - int64(l.since()-from)
	}

	class := hdd.NoClass
	if spec.Update {
		class = spec.Class
	}
	var wrote uint64 // the counter the last attempt wrote
	fn := func(t hdd.Txn) error { return ln.body(t, spec, &wrote) }
	policy := hdd.RetryPolicy{MaxAttempts: -1, Seed: spec.RetrySeed}
	var err error
	if l.w.Embedded {
		// In-process there is no deadline to enforce between attempts and
		// a context per microsecond-scale transaction would be the
		// dominant cost; a bounded attempt count stands in for it.
		policy.MaxAttempts = 100
		err = hdd.Run(beg, class, fn, policy)
	} else {
		ctx, cancel := context.WithDeadline(context.Background(), l.t0.Add(from+txnDeadline))
		err = hdd.RunCtx(ctx, beg, class, fn, policy)
		cancel()
	}
	end := l.since()
	if err == nil && spec.Update {
		ln.w.committed(hdd.GranuleID{Segment: hdd.SegmentID(spec.Class), Key: spec.Key}, wrote)
	}
	if err != nil {
		l.noteErr(err)
	}
	kind := kindRO
	if spec.Update {
		kind = kindUpdate
	}
	ln.rec.done(kind, ln.trickle, from, end, err)
	if tracing {
		l.tr.record(span{kind: spanTxn, update: spec.Update, root: ln.traced.root, start: start, end: l.tr.now()})
	}
}

// body is one attempt of a generated transaction.
func (ln *lane) body(t hdd.Txn, spec *TxnSpec, wrote *uint64) error {
	o := ln.l.o
	if !spec.Update {
		for i := 0; i < spec.NReads; i++ {
			b, err := t.Read(spec.Reads[i])
			if err != nil {
				return err
			}
			o.check(b, spec.Reads[i])
		}
		return nil
	}
	if spec.Class > 0 {
		// Protocol A: the segment one level up the hierarchy.
		g := hdd.GranuleID{Segment: hdd.SegmentID(spec.Class - 1), Key: spec.ReadKey}
		b, err := t.Read(g)
		if err != nil {
			return err
		}
		o.check(b, g)
	}
	// Protocol B: read-modify-write in the class's own segment.
	g := hdd.GranuleID{Segment: hdd.SegmentID(spec.Class), Key: spec.Key}
	b, err := t.Read(g)
	if err != nil {
		return err
	}
	v, ok := o.check(b, g)
	if ok {
		ln.w.sawOwnSegment(g, v)
	}
	*wrote = v.Counter + 1
	return t.Write(g, ln.w.next(g, v.Counter))
}

// closedLoop runs one logical client: its next transaction starts when
// the previous one is acknowledged.
func (l *load) closedLoop(id int, wg *sync.WaitGroup) {
	defer wg.Done()
	ln := l.newLane(id, false, l.newRecorder())
	s := NewStream(l.w, l.seed, id)
	for !l.stop.Load() {
		spec := s.Next()
		ln.run(&spec, l.since())
	}
}

// job is one open-loop arrival.
type job struct {
	spec TxnSpec
	due  time.Duration // offset from t0
}

// openLoop dispatches a stream's arrivals on their schedule, whatever
// the system's pace, to a bounded pool of workers. A transaction's
// latency counts from its due time, so the queueing a stall causes is
// charged to the transactions that waited behind it. firstID is the
// first worker's writer id; the schedule starts at startAt (negative:
// warm-up) and ends with the plan.
func (l *load) openLoop(s *Stream, workers, firstID int, trickle bool, startAt time.Duration, wg *sync.WaitGroup) {
	defer wg.Done()
	sched := &schedule{next: func() (time.Duration, TxnSpec) {
		spec := s.Next()
		return spec.Gap, spec
	}, due: startAt, end: l.plan.end()}
	rec := l.newRecorder()
	lanes := make([]*lane, workers)
	for i := range lanes {
		lanes[i] = l.newLane(firstID+i, trickle, rec)
	}
	lag := func(job, time.Duration) {}
	if !trickle {
		rec.lag = new(hist)
		lag = func(j job, late time.Duration) {
			if l.plan.groupOf(j.due) >= 0 {
				rec.mu.Lock()
				rec.lag.record(late)
				rec.mu.Unlock()
			}
		}
	}
	backlog := runSchedule(sched, workers, l.since, &l.stop,
		func(worker int, j job) { lanes[worker].run(&j.spec, j.due) }, lag, l.plan.marks)
	if !trickle {
		l.m.mu.Lock()
		l.m.backlog = backlog
		l.m.mu.Unlock()
	}
}

// schedule yields arrivals in due order until the end offset.
type schedule struct {
	next func() (gap time.Duration, spec TxnSpec)
	due  time.Duration
	end  time.Duration
}

func (s *schedule) pop() (job, bool) {
	gap, spec := s.next()
	s.due += gap
	if s.due >= s.end {
		return job{}, false
	}
	return job{spec: spec, due: s.due}, true
}

// openLoopQueue bounds the arrivals waiting for a worker: four seconds
// of mixed_contended's rate. A backlog that deep means the system is not
// keeping up at all, and every transaction in it has long missed its
// deadline.
const openLoopQueue = 4 * mixedRate

// runSchedule is the open-loop engine, kept free of the benchmark's
// other state so its timing contract can be tested against a fake
// target: it sleeps until each arrival is due and queues it for the
// worker pool without waiting for a worker to be free, so a stalled
// target delays nothing but its own completions. (Only a full queue
// blocks the dispatcher, and the lag it reports exposes that.) It
// returns the queue length at each mark.
func runSchedule(s *schedule, workers int, now func() time.Duration, stop *atomic.Bool,
	exec func(worker int, j job), lag func(j job, late time.Duration), marks []time.Duration) []int {
	queue := make(chan job, openLoopQueue)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				exec(i, j)
			}
		}()
	}
	backlog := make([]int, len(marks))
	noted := 0
	for !stop.Load() {
		j, ok := s.pop()
		if !ok {
			break
		}
		for noted < len(marks) && j.due >= marks[noted] {
			backlog[noted] = len(queue)
			noted++
		}
		if wait := j.due - now(); wait > 0 {
			time.Sleep(wait)
		}
		lag(j, now()-j.due)
		queue <- j
	}
	for ; noted < len(marks); noted++ {
		backlog[noted] = len(queue)
	}
	close(queue)
	wg.Wait()
	return backlog
}
