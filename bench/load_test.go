package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The open loop must charge a stalled target's queueing to the requests
// that waited behind the stall: with latency counted from each request's
// due time, one 200 ms stall on a one-worker target at 1000 requests/s
// shows up as ~200 requests with latencies stepping down from ~200 ms —
// whereas a closed loop (or latency counted from dispatch) would report
// a single slow request.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		gap     = time.Millisecond
		total   = 600 * time.Millisecond
		stallAt = 100 // the request that stalls
		stall   = 200 * time.Millisecond
	)
	n := 0
	sched := &schedule{next: func() (time.Duration, TxnSpec) {
		n++
		return gap, TxnSpec{Key: uint64(n)}
	}, end: total}
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }

	var mu sync.Mutex
	fromDue := map[uint64]time.Duration{}
	lateness := map[uint64]time.Duration{}
	var stop atomic.Bool
	runSchedule(sched, 1, now, &stop, func(_ int, j job) {
		if j.spec.Key == stallAt {
			time.Sleep(stall)
		}
		end := now()
		mu.Lock()
		fromDue[j.spec.Key] = end - j.due
		mu.Unlock()
	}, func(j job, late time.Duration) {
		mu.Lock()
		lateness[j.spec.Key] = late
		mu.Unlock()
	}, []time.Duration{total})

	if len(fromDue) < int(total/gap)-2 {
		t.Fatalf("only %d of ~%d scheduled requests ran: the dispatcher waited for the stalled target", len(fromDue), total/gap)
	}
	// Requests due during the stall waited for it.
	for _, k := range []uint64{stallAt + 10, stallAt + 50, stallAt + 100} {
		want := stall - time.Duration(k-stallAt)*gap
		if got := fromDue[k]; got < want-20*time.Millisecond {
			t.Errorf("request %d, due %v into a %v stall: latency %v from its due time, want >= ~%v",
				k, time.Duration(k-stallAt)*gap, stall, got, want)
		}
	}
	// They were dispatched on schedule all the same, not held back …
	slow := 0
	for k, d := range fromDue {
		if d > 50*time.Millisecond {
			slow++
		}
		if k < stallAt-10 && d > 50*time.Millisecond {
			t.Errorf("request %d, before the stall, took %v", k, d)
		}
	}
	// … so the stall is visible on every request it delayed, not on one.
	if slow < 100 {
		t.Errorf("%d requests show the stall, want well over 100", slow)
	}
	if late := lateness[stallAt+50]; late > 20*time.Millisecond {
		t.Errorf("request %d was dispatched %v late: dispatch must not wait for the stalled target", stallAt+50, late)
	}
}

// A transaction is attributed to the phase its latency counts from, and
// only to measured time.
func TestRecorderAttribution(t *testing.T) {
	p := untracedPlan(8 * time.Second)
	windows := int(8 * time.Second / window)
	if p.groups != windows || len(p.marks) != backlogMarks || p.end() != 8*time.Second {
		t.Fatalf("untracedPlan: %+v", p)
	}
	m := newMeasured(p)
	r := &recorder{plan: p, into: m, cur: -1}
	r.done(kindUpdate, false, -time.Second, time.Second, nil)                   // warm-up: dropped
	r.done(kindUpdate, false, 400*time.Millisecond, 1300*time.Millisecond, nil) // window 0, though it ends in a later one
	r.done(kindRO, true, 7900*time.Millisecond, 8500*time.Millisecond, nil)     // last window; trickle
	r.done(kindRO, false, 100*time.Millisecond, 100*time.Millisecond, nil)      // back in window 0; zero latency is fine
	r.done(kindRO, false, 100*time.Millisecond, 2*time.Second, nil)             // past the deadline: failed
	r.done(kindRO, false, 8*time.Second, 8*time.Second+time.Millisecond, nil)   // past the end: dropped
	r.flush()
	if m.attempted != 4 || m.failed != 1 || m.main[0] != 2 || m.lat[0][kindUpdate].n != 1 || m.lat[0][kindRO].n != 1 {
		t.Errorf("attempted %d failed %d; window 0: main %d updates %d ro %d",
			m.attempted, m.failed, m.main[0], m.lat[0][kindUpdate].n, m.lat[0][kindRO].n)
	}
	last := windows - 1
	if m.main[last] != 0 || m.lat[last][kindRO].n != 0 {
		t.Errorf("last window: main %d ro %d, want the trickle left out", m.main[last], m.lat[last][kindRO].n)
	}
	if g := p.groupOf(7900 * time.Millisecond); g != last {
		t.Errorf("7.9 s belongs to window %d, want %d", g, last)
	}

	tp := tracedPlan(5 * time.Second)
	secs := tp.seconds()
	if tp.groups != 2 || secs[groupRef] != 3 || secs[groupTraced] != 2 {
		t.Errorf("tracedPlan(5s): groups %d seconds %v", tp.groups, secs)
	}
	if g := tp.groupOf(1500 * time.Millisecond); g != groupTraced {
		t.Errorf("second 1 belongs to group %d, want traced", g)
	}
}
