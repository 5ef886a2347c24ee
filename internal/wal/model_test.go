package wal

import (
	"bufio"
	"bytes"
	"container/heap"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The device model: a discrete-event loop, with no goroutines and no
// sleeps, that drives sched as Log does against an fsync device of
// constant latency (one flush time) that resolves in order with up to
// maxInFlight flushes in flight. Committers are closed-loop (acknowledged,
// back after a think time drawn from a seeded source), open-loop (Poisson
// arrivals) or both; one row replays arrivals, and another also the
// device's flush times, recorded from a benchmark run. Decisions take no
// time: all that happens at one instant is handled, then the flusher
// looks once.
//
// Every shape is one row of testdata/model.golden, which pins the
// scheduler's rules on every arrival shape at once; after a deliberate
// rule change, regenerate it with
//
//	go test -run TestModelTable ./internal/wal/ -update

var update = flag.Bool("update", false, "rewrite testdata/model.golden")

// flushTime is the model device's write+fsync, the unit of every figure.
const flushTime = time.Millisecond

// epoch is the model's time zero, far from time.Time's zero, which sched
// reads as "never".
var epoch = time.Unix(1<<30, 0)

// marker is a commit marker in the model: who sent it (a closed-loop
// committer's index, or one of the sources below) and when it arrived.
type marker struct {
	who int
	at  time.Time
}

// Event sources other than closed-loop committers.
const (
	poisson = -1 // the open loop: each arrival schedules the next
	wakeup  = -2 // no marker: only lets time pass
	oneOff  = -3 // a marker from nobody who comes back
)

// mflush is a flush the model started: what sched reported of it (Sync is
// its write+fsync), its markers, and when it resolved.
type mflush struct {
	Flush
	markers []marker
	end     time.Time
	done    bool // its fsync has returned
}

// event is an arrival (who as in marker) or, with fl set, a flush's fsync
// returning. seq orders events at one instant by when they were scheduled.
type event struct {
	at  time.Time
	seq int
	who int
	fl  *mflush
}

type events []event

func (q events) Len() int { return len(q) }
func (q events) Less(i, j int) bool {
	return q[i].at.Before(q[j].at) || q[i].at.Equal(q[j].at) && q[i].seq < q[j].seq
}
func (q events) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *events) Push(x any)   { *q = append(*q, x.(event)) }
func (q *events) Pop() any {
	e := (*q)[len(*q)-1]
	*q = (*q)[:len(*q)-1]
	return e
}

// model is one run of sched against the device.
type model struct {
	s       sched
	now     time.Time
	q       events
	seq     int
	rng     *rand.Rand
	open    []marker  // markers in the open batch
	flushes []*mflush // every flush started, in order
	head    int       // flushes[head:] are in flight
	timer   time.Time // the flusher's bound; zero when it sleeps until kicked
	kicked  bool
	device  []time.Duration // flush times drawn at random; none: flushTime each

	lo, hi float64 // closed-loop think time, uniform in [lo, hi) flush times
	gates  []bool  // closed-loop committer i comes back after its ack
	rate   float64 // open-loop arrivals per flush time; 0 for none
}

func newModel(k int, lo, hi, rate float64, seed int64) *model {
	m := &model{now: epoch, rng: rand.New(rand.NewSource(seed)), lo: lo, hi: hi, rate: rate, gates: make([]bool, k)}
	for i := range m.gates {
		m.gates[i] = true
		m.at(m.think(), i)
	}
	if rate > 0 {
		m.at(m.gap(), poisson)
	}
	return m
}

func (m *model) think() time.Duration {
	return time.Duration((m.lo + (m.hi-m.lo)*m.rng.Float64()) * float64(flushTime))
}

func (m *model) gap() time.Duration {
	return time.Duration(m.rng.ExpFloat64() / m.rate * float64(flushTime))
}

// at schedules a marker from who, d from now.
func (m *model) at(d time.Duration, who int) {
	m.seq++
	heap.Push(&m.q, event{at: m.now.Add(d), seq: m.seq, who: who})
}

// runUntil advances instant by instant until stop holds.
func (m *model) runUntil(stop func() bool) {
	for !stop() {
		next := m.timer
		if len(m.q) > 0 && (next.IsZero() || m.q[0].at.Before(next)) {
			next = m.q[0].at
		}
		if next.IsZero() {
			panic("model: nothing left to happen")
		}
		m.now = next
		for len(m.q) > 0 && !m.q[0].at.After(m.now) {
			m.handle(heap.Pop(&m.q).(event))
		}
		if m.kicked || !m.timer.IsZero() && !m.timer.After(m.now) {
			m.flusher()
		}
	}
}

// runFlushes runs until n flushes have started in all.
func (m *model) runFlushes(n int) { m.runUntil(func() bool { return len(m.flushes) >= n }) }

// idle lets d pass with nothing arriving from the closed loop.
func (m *model) idle(d time.Duration) {
	end := m.now.Add(d)
	m.seq++
	heap.Push(&m.q, event{at: end, seq: m.seq, who: wakeup})
	m.runUntil(func() bool { return !m.now.Before(end) })
}

func (m *model) handle(e event) {
	switch {
	case e.fl != nil:
		m.s.synced(e.fl.Sync)
		e.fl.done = true
		for ; m.head < len(m.flushes) && m.flushes[m.head].done; m.head++ {
			f := m.flushes[m.head]
			f.end = m.now
			if m.s.resolved(m.now, f.Waiters) {
				m.kicked = true
			}
			for _, mk := range f.markers {
				if mk.who >= 0 && m.gates[mk.who] {
					m.at(m.think(), mk.who)
				}
			}
		}
	case e.who == wakeup:
	default:
		if e.who == poisson {
			m.at(m.gap(), poisson)
		}
		m.open = append(m.open, marker{e.who, m.now})
		if m.s.append(m.now, true, false) {
			m.kicked = true
		}
	}
}

// holdAlways makes every model hold whenever holdLeft says to, as sched
// did before it learned which holds pay: the reference the hold outcomes
// are judged against.
var holdAlways bool

// flusher looks once, as Log's flusher does when it wakes.
func (m *model) flusher() {
	m.kicked, m.timer = false, time.Time{}
	for {
		if holdAlways {
			m.s.stray = 0
		}
		d := m.s.decide(m.now)
		if d > 0 {
			if d != forever {
				m.timer = m.now.Add(d)
			}
			return
		}
		fl := &mflush{Flush: m.s.start(m.now), markers: m.open}
		fl.Sync = flushTime
		if len(m.device) > 0 {
			fl.Sync = m.device[m.rng.Intn(len(m.device))]
		}
		m.open = nil
		m.flushes = append(m.flushes, fl)
		m.seq++
		heap.Push(&m.q, event{at: m.now.Add(fl.Sync), seq: m.seq, fl: fl})
	}
}

// stats summarises flushes: commits per sync, and the mean and 95th
// percentile of their markers' latency in flush times.
func stats(fl []*mflush) (perSync, mean, p95 float64) {
	var lat []time.Duration
	var sum time.Duration
	for _, f := range fl {
		for _, mk := range f.markers {
			lat = append(lat, f.end.Sub(mk.at))
			sum += f.end.Sub(mk.at)
		}
	}
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ft := float64(flushTime)
	return float64(len(lat)) / float64(len(fl)), float64(sum/time.Duration(len(lat))) / ft, float64(lat[(len(lat)*95+99)/100-1]) / ft
}

// modelWarm and modelFlushes are how many flushes a steady shape runs
// before it is measured, and how many it is measured over.
const modelWarm, modelFlushes = 50, 500

// steady runs m past its warm-up and returns the measured flushes.
func (m *model) steady() []*mflush {
	m.runFlushes(modelWarm + modelFlushes)
	return m.settle(m.flushes[modelWarm : modelWarm+modelFlushes])
}

// settle runs until the last of fl has resolved, and returns fl.
func (m *model) settle(fl []*mflush) []*mflush {
	m.runUntil(func() bool { return !fl[len(fl)-1].end.IsZero() })
	return fl
}

// splitModel forces a 4+4 split on a cohort of eight: four stop
// coming back, the log settles on the four that remain, and the four
// return while a batch of those is inside its fsync. It returns the
// flushes from the split on.
func splitModel() []*mflush {
	m := newModel(8, 0.25, 1.0/3, 0, 1)
	m.runFlushes(20)
	for i := 4; i < 8; i++ {
		m.gates[i] = false
	}
	m.runFlushes(len(m.flushes) + 12)
	m.runFlushes(len(m.flushes) + 1) // a flush has just started
	split := len(m.flushes)
	for i := 4; i < 8; i++ {
		m.gates[i] = true
		m.at(m.think(), i)
	}
	m.runFlushes(split + 30)
	return m.settle(m.flushes[split:])
}

// merged is the index of the first of fl to carry n markers, or -1.
func merged(fl []*mflush, n int) int {
	for i, f := range fl {
		if f.Waiters == n {
			return i
		}
	}
	return -1
}

// absentModel lets one of a cohort of eight stop coming back and returns
// the flush that may still carry its last marker and the twenty after it.
func absentModel() []*mflush {
	m := newModel(8, 0.25, 1.0/3, 0, 1)
	m.runFlushes(20)
	m.gates[7] = false
	gone := len(m.flushes) + 1
	m.runFlushes(gone + 20)
	return m.settle(m.flushes[gone-1 : gone+20])
}

// idleModel runs a cohort of eight, halts it, lets the log idle for three
// flush times and sends one marker; it returns that marker's flush.
func idleModel() *mflush {
	m := newModel(8, 0.25, 1.0/3, 0, 1)
	m.runFlushes(20)
	for i := range m.gates {
		m.gates[i] = false
	}
	m.idle(3 * flushTime)
	m.at(0, oneOff)
	m.runFlushes(len(m.flushes) + 1)
	return m.settle(m.flushes[len(m.flushes)-1:])[0]
}

// rejoinModel acknowledges one marker, lets the log idle for three flush
// times and starts a cohort of sixteen: the acknowledged committer counts
// as due and never comes back, so all but one of the first wave find
// nobody due. It returns the flushes from the cohort's first on.
func rejoinModel() []*mflush {
	m := newModel(0, 0.25, 0.35, 0, 1)
	m.at(0, oneOff)
	m.runFlushes(1)
	m.settle(m.flushes)
	m.idle(3 * flushTime)
	start := len(m.flushes)
	m.gates = make([]bool, 16)
	for i := range m.gates {
		m.gates[i] = true
		m.at(m.think(), i)
	}
	m.runFlushes(start + 40)
	return m.settle(m.flushes[start:])
}

// poissonModel sends n open-loop markers at rate per flush time and
// returns every flush.
func poissonModel(n int, rate float64, seed int64) []*mflush {
	m := newModel(0, 0, 0, rate, seed)
	m.runUntil(func() bool {
		k := 0
		for _, f := range m.flushes {
			k += len(f.markers)
		}
		return k >= n && !m.flushes[len(m.flushes)-1].end.IsZero()
	})
	return m.flushes
}

// recordedModel replays testdata/mixed_contended.trace: commit markers as
// they reached the log in a benchmark run and, if device is set, the
// run's flush times too, all scaled to its median flush. It returns every
// flush after the warm-up.
func recordedModel(t testing.TB, device bool) []*mflush {
	f, err := os.Open(filepath.Join("testdata", "mixed_contended.trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var gaps, flushes []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		kind, v, _ := strings.Cut(sc.Text(), " ")
		us, err := strconv.ParseFloat(v, 64)
		switch {
		case kind == "#":
		case err == nil && kind == "gap":
			gaps = append(gaps, us)
		case err == nil && kind == "flush":
			flushes = append(flushes, us)
		default:
			t.Fatalf("bad line %q in the recorded trace", sc.Text())
		}
	}
	sort.Float64s(flushes)
	unit := flushes[len(flushes)/2] / float64(flushTime)
	m := newModel(0, 0, 0, 0, 1)
	for _, us := range flushes {
		if device {
			m.device = append(m.device, time.Duration(us/unit))
		}
	}
	var at float64
	for _, us := range gaps {
		at += us
		m.at(time.Duration(at/unit), oneOff)
	}
	m.runUntil(func() bool { return len(m.q) == 0 })
	return m.flushes[modelWarm:]
}

// modelRow is one line of the golden table.
type modelRow struct {
	shape string
	fl    []*mflush
	merge int // flush at which a split cohort merges; -1 for none
	loop  loop
}

// loop is who sends a row's markers: committers that come back when
// acknowledged, arrivals that come regardless, or both (or neither).
type loop uint8

const (
	closedLoop loop = iota
	openLoop
	mixedLoop
)

func (r modelRow) String() string {
	per, mean, p95 := stats(r.fl)
	held, expired := holdShares(r.fl)
	merge := "-"
	if r.merge >= 0 {
		merge = fmt.Sprint(r.merge)
	}
	return fmt.Sprintf("%-34s %6.2f %6.3f %6.3f %5s %5.1f %5.1f", r.shape, per, mean, p95, merge, 100*held, 100*expired)
}

// holdShares is the share of fl's markers whose flush was held, and of
// those whose hold ran to its bound.
func holdShares(fl []*mflush) (held, expired float64) {
	var n, h, e int
	for _, f := range fl {
		n += len(f.markers)
		switch f.Hold {
		case HoldReady:
			h += len(f.markers)
		case HoldExpired:
			h += len(f.markers)
			e += len(f.markers)
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(h) / float64(n), float64(e) / float64(n)
}

// modelRows runs every shape.
func modelRows(t testing.TB) []modelRow {
	var rows []modelRow
	for _, k := range []int{1, 2, 4, 8, 16} {
		for _, t := range []float64{0, 0.25, 0.5, 0.75, 1} {
			m := newModel(k, t, t+0.1, 0, int64(k))
			rows = append(rows, modelRow{fmt.Sprintf("closed k=%d think=%.2f-%.2f", k, t, t+0.1), m.steady(), -1, closedLoop})
		}
	}
	for _, r := range []float64{0.5, 1, 2, 3, 4, 8} {
		rows = append(rows, modelRow{fmt.Sprintf("poisson %.1f/flush", r), newModel(0, 0, 0, r, 7).steady(), -1, openLoop})
	}
	for _, c := range []struct {
		k      int
		lo, hi float64
		rate   float64
	}{{4, 0.5, 0.6, 1}, {8, 0.25, 0.35, 2}, {2, 0, 0.1, 4}} {
		rows = append(rows, modelRow{fmt.Sprintf("closed k=%d think=%.2f-%.2f + poisson %.0f", c.k, c.lo, c.hi, c.rate),
			newModel(c.k, c.lo, c.hi, c.rate, 3).steady(), -1, mixedLoop})
	}
	split, rejoin := splitModel(), rejoinModel()
	rows = append(rows,
		modelRow{"forced 4+4 split", split, merged(split, 8), closedLoop},
		modelRow{"absent committer", absentModel()[1:], -1, closedLoop},
		modelRow{"lone committer", newModel(1, 0.15, 0.15, 0, 1).steady(), -1, closedLoop},
		modelRow{"idle log, then one marker", []*mflush{idleModel()}, -1, mixedLoop},
		modelRow{"idle log, then a cohort of 16", rejoin, merged(rejoin, 16), closedLoop},
		modelRow{"update_durable: 8 closed, 0.51", newModel(8, 0.46, 0.56, 0, 13).steady(), -1, closedLoop},
		modelRow{"mixed_contended: poisson 3.6", newModel(0, 0, 0, 3.6, 13).steady(), -1, openLoop},
		modelRow{"mixed_contended: recorded arrivals", recordedModel(t, false), -1, openLoop},
		modelRow{"  and recorded flush times", recordedModel(t, true), -1, openLoop})
	return rows
}

// TestModelTable: the golden table is what the scheduler's rules do on
// every shape. Any change to it is a change of rule, made on purpose.
func TestModelTable(t *testing.T) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-34s %6s %6s %6s %5s %5s %5s\n", "shape", "c/sync", "mean", "p95", "merge", "held%", "exp%")
	for _, r := range modelRows(t) {
		fmt.Fprintln(&b, r)
	}
	path := filepath.Join("testdata", "model.golden")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("model table differs from %s (rerun with -update after a deliberate rule change):\n%s", path, b.String())
	}
}

// plain is what OnFlush would have reported of fl.
func plain(fl []*mflush) []Flush {
	out := make([]Flush, len(fl))
	for i, f := range fl {
		out[i] = f.Flush
	}
	return out
}

// TestModelCohortSharesOneSync: eight closed-loop committers whose
// turnaround is under half a flush settle into one cohort per fsync.
func TestModelCohortSharesOneSync(t *testing.T) {
	for _, lo := range []float64{0.25, 0.46} {
		m := newModel(8, lo, lo+0.1, 0, 1)
		m.runFlushes(40)
		if per, _, _ := stats(m.settle(m.flushes[15:40])); per < 7 {
			t.Errorf("think %.2f: %.2f commit waiters per sync in steady state, want >= 7", lo, per)
		}
	}
}

// TestModelMergesForcedSplit: a cohort forced into two halves is one
// cohort again within five flushes, and stays one.
func TestModelMergesForcedSplit(t *testing.T) {
	after := splitModel()
	i := merged(after, 8)
	if i < 0 || i > 5 {
		t.Fatalf("split cohort first shared an fsync at flush %d after the split, want within 5: %s", i, describe(plain(after)))
	}
	if k := full(plain(after[i:i+20]), 8); k < 16 {
		t.Errorf("%d of the 20 flushes after the merge carried the whole cohort, want >= 16: %s", k, describe(plain(after)))
	}
}

// TestModelAbsentCommitterCostsOnce: when one of the cohort stops coming
// back, the others wait for it once — at most one flush time — and not
// again.
func TestModelAbsentCommitterCostsOnce(t *testing.T) {
	after := absentModel()[1:]
	var expired int
	for _, f := range after {
		if f.Hold == HoldExpired {
			expired++
			if f.Held > flushTime {
				t.Errorf("a hold for the absent committer lasted %v, want at most a flush (%v)", f.Held, flushTime)
			}
		}
	}
	if expired > 2 {
		t.Errorf("%d holds ran to their bound after one committer left, want it to cost once", expired)
	}
	if k := full(plain(after[4:]), 7); k < 12 {
		t.Errorf("%d of 16 later flushes carried the seven that remain, want >= 12: %s", k, describe(plain(after)))
	}
}

// TestModelLoneCommitterPaysOneSync: a transaction's write does not start
// a flush of its own that the commit marker behind it then waits out.
func TestModelLoneCommitterPaysOneSync(t *testing.T) {
	m := newModel(0, 0, 0, 0, 1)
	if m.s.append(m.now, false, false) {
		t.Error("a write record woke the flusher")
	}
	m.at(flushTime*15/100, -3)
	m.runFlushes(1)
	fl := m.settle(m.flushes)
	if per, mean, _ := stats(fl); len(fl) != 1 || per != 1 || mean > 1.5 {
		t.Errorf("%d flushes, %.2f commits per sync, latency %.2f flushes for one write and its commit; want 1 sync within 1.5", len(fl), per, mean)
	}
}

// TestModelIdleLogFlushesNextMarkerAtOnce: committers that were due and
// never returned do not delay a commit that arrives long after.
func TestModelIdleLogFlushesNextMarkerAtOnce(t *testing.T) {
	f := idleModel()
	if _, mean, _ := stats([]*mflush{f}); f.Hold != HoldNone || mean > 1.5 {
		t.Errorf("commit on an idle log: hold outcome %d, acknowledged after %.2f flushes; want no hold and one flush", f.Hold, mean)
	}
}

// TestModelLeavesPoissonArrivalsAlone: open-loop commits at three per
// flush are acknowledged as soon as if every batch were flushed the moment
// a single flusher is free — the arrivals replayed through that rule are
// the reference.
func TestModelLeavesPoissonArrivalsAlone(t *testing.T) {
	fl := poissonModel(450, 3, 24)
	var arrived []time.Time
	for _, f := range fl {
		for _, mk := range f.markers {
			arrived = append(arrived, mk.at)
		}
	}
	var want time.Duration
	var free time.Time
	for i := 0; i < len(arrived); {
		start := arrived[i]
		if start.Before(free) {
			start = free
		}
		free = start.Add(flushTime)
		for ; i < len(arrived) && !arrived[i].After(start); i++ {
			want += free.Sub(arrived[i])
		}
	}
	_, got, _ := stats(fl)
	if ref := float64(want) / float64(len(arrived)) / float64(flushTime); got > ref*1.1 {
		t.Errorf("mean commit latency %.3f flushes under Poisson arrivals, want within 10%% of flush-as-soon-as-possible (%.3f)", got, ref)
	}
}

// TestModelOpenLoopCommitWaitsOneFlush: a commit arriving on its own is
// flushed beside the flush in flight, not behind it, so open-loop commits
// at three per flush time are acknowledged about one flush after they
// arrive.
func TestModelOpenLoopCommitWaitsOneFlush(t *testing.T) {
	if _, mean, _ := stats(poissonModel(300, 3, 35)); mean > 1.3 {
		t.Errorf("mean commit latency %.3f flushes under Poisson arrivals, want at most 1.3", mean)
	}
}

// figures is what TestModelHoldsOnlyWhatPays reads of a row.
type figures struct {
	shape                   string
	loop                    loop
	per, mean, p95, expired float64
}

func figuresOf(rows []modelRow) []figures {
	out := make([]figures, len(rows))
	for i, r := range rows {
		out[i].shape, out[i].loop = r.shape, r.loop
		out[i].per, out[i].mean, out[i].p95 = stats(r.fl)
		_, out[i].expired = holdShares(r.fl)
	}
	return out
}

// paired holds every row's figures with the rule and with every hold
// taken (holdAlways), made once per test binary: both runs are
// deterministic, so repeating them under -count adds nothing
// (TestModelTable reruns the rule).
var paired struct {
	once         sync.Once
	rule, always []figures
}

func pairedRows(t testing.TB) (rule, always []figures) {
	paired.once.Do(func() {
		defer func() { holdAlways = false }()
		holdAlways = true
		paired.always = figuresOf(modelRows(t))
		holdAlways = false
		paired.rule = figuresOf(modelRows(t))
	})
	if len(paired.rule) == 0 {
		t.Fatal("model rows were not made")
	}
	return paired.rule, paired.always
}

// TestModelHoldsOnlyWhatPays: sched stops holding for committers that do
// not come back within the hold's bound. Against the same rows run with
// every hold taken, open-loop and recorded rows lose at least three
// quarters of their waiters in expired holds; no closed-loop row gains an
// expired waiter or loses more than 5 % of its commits per sync; and no
// row that mixes a cohort with open-loop arrivals gains an expired
// waiter, a longer mean, or a p95 more than 5 % longer.
func TestModelHoldsOnlyWhatPays(t *testing.T) {
	rule, always := pairedRows(t)
	for i, r := range rule {
		a := always[i]
		switch r.loop {
		case openLoop:
			if r.expired > a.expired/4 {
				t.Errorf("%s: %.1f%% of waiters in expired holds, want at most a quarter of %.1f%%", r.shape, 100*r.expired, 100*a.expired)
			}
		case closedLoop:
			if r.expired > a.expired {
				t.Errorf("%s: %.1f%% of waiters in expired holds, want at most %.1f%%", r.shape, 100*r.expired, 100*a.expired)
			}
			if r.per < a.per*0.95 {
				t.Errorf("%s: %.2f commits per sync, want within 5%% of %.2f", r.shape, r.per, a.per)
			}
		case mixedLoop:
			if r.expired > a.expired {
				t.Errorf("%s: %.1f%% of waiters in expired holds, want at most %.1f%%", r.shape, 100*r.expired, 100*a.expired)
			}
			if r.mean > a.mean || r.p95 > a.p95*1.05 {
				t.Errorf("%s: mean %.3f, p95 %.3f flushes, want at most %.3f and within 5%% of %.3f", r.shape, r.mean, r.p95, a.mean, a.p95)
			}
		}
	}
}
