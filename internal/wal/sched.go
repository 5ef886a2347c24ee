package wal

import (
	"math"
	"time"
)

// forever is decide's "sleep until kicked": no hold bound is running.
const forever = time.Duration(math.MaxInt64)

// sched decides when the open batch is flushed. It holds every input of
// that decision and reads no clock: Log feeds it events under Log.mu with
// time.Now(), the device model in model_test.go with simulated time.
type sched struct {
	interval time.Duration // Options.FlushInterval
	closing  bool          // Close: nothing more comes; flush what waits, hold nothing

	waiters          int       // commit markers in the open batch
	sync, full       bool      // a Sync wants it now; it reached FlushBytes
	began, prev, end time.Time // the hold on it: began, last looked, bound

	due             int // committers acknowledged at ackAt and not back since
	ackAt           time.Time
	ret, dev, flush time.Duration // they are all back in ret ± dev; a flush's own time

	inFlight int       // flushes in flight
	youngAt  time.Time // when the youngest started
	young    bool      // it was held for a returning cohort
	blocked  bool      // decide waits for a resolve, which alone kicks it

	stray float64 // share of recent commit markers that came with nobody due
}

// A marker that arrives while nobody is due comes from a committer no
// acknowledgement released: open-loop traffic, which comes whether or not
// the batch is held. Once more than one marker in sixteen does
// (strayMax), the committers counted due are not the ones arriving and a
// hold would mostly run to its bound, so none is begun. stray is an EWMA
// of that event with gain strayGain; a closed-loop cohort keeps it near 0.
// Markers more than two flush times after the last ack, or before any,
// are not counted: whoever was due is stale, and a cohort starting on an
// idle log would otherwise look stray.
const strayGain, strayMax = 1.0 / 128, 1.0 / 16

// pending reports whether the open batch has anything to flush.
func (s *sched) pending() bool { return s.waiters > 0 || s.sync || s.full }

// append: a record (a commit marker if marker) joined the open batch at
// now, full if it reached FlushBytes. Kick the flusher if it reports true.
func (s *sched) append(now time.Time, marker, full bool) bool {
	s.full = s.full || full
	if marker {
		s.waiters++
		if s.due == 1 {
			s.sample(now.Sub(s.ackAt))
		}
		s.stray -= s.stray * strayGain
		if s.due == 0 && now.Sub(s.ackAt) < 2*s.flush {
			s.stray += strayGain
		}
		s.due = max(s.due-1, 0)
	}
	return (marker || full) && !s.blocked
}

// decide says whether to flush the open batch at now (0) or sleep until
// kicked or d has passed. It holds the batch while holdLeft says to; then
// the batch starts beside the flushes in flight only while the youngest is
// under half a flush old and neither was held for a returning cohort
// (overlapped, a cohort splits), else it waits for a resolve and holds
// afresh. Open-loop commits are not held (strayMax).
func (s *sched) decide(now time.Time) time.Duration {
	if s.blocked || !s.pending() {
		return forever
	}
	how := s.outcome(now)
	if left := s.holdLeft(now); how != HoldExpired && left > 0 {
		if s.began.IsZero() {
			s.began, s.end = now, now.Add(left)
		}
		s.prev = now
		return s.end.Sub(now)
	}
	if s.inFlight > 0 && (s.inFlight == maxInFlight || how == HoldReady || s.young || now.Sub(s.youngAt) >= s.flush/2) {
		s.blocked, s.began, s.prev = true, time.Time{}, time.Time{}
		return forever
	}
	return 0
}

// outcome is how the hold on the open batch ends if it ends at now.
func (s *sched) outcome(now time.Time) HoldOutcome {
	if s.began.IsZero() {
		return HoldNone
	}
	if now.Before(s.end) {
		return HoldReady
	}
	return HoldExpired
}

// holdLeft reports how much longer to hold the open batch (<= 0: none); a
// Sync, the byte threshold or Close ends any hold, FlushInterval's too;
// stray markers mean nobody worth holding for (strayMax). Those due are
// expected within w: the return estimate padded with its deviation, less
// the time since the ack; the padding declines holds for committers
// slower than a flush, whose estimate sits at its cap (DESIGN.md §10.3).
// After the first look a marker came since prev, so w is at most now-prev
// per marker due: early returns must not end a hold.
func (s *sched) holdLeft(now time.Time) time.Duration {
	if s.full || s.sync || s.closing {
		return 0
	}
	if s.interval > 0 {
		return s.interval
	}
	if s.stray > strayMax {
		return 0
	}
	since := now.Sub(s.ackAt)
	w := max(s.ret+s.dev-since, 0)
	if !s.prev.IsZero() {
		w = min(w, now.Sub(s.prev)*time.Duration(s.due))
	}
	if !holdWorth(s.waiters, s.due, w, s.flush, since, s.ret) {
		return 0
	}
	return min(s.flush, 2*s.ret) - since
}

// holdWorth is the group-commit decision. b markers wait in the open
// batch; r committers acknowledged since ago are due back within w; a
// flush takes s. Flushing now makes the r wait s-w each behind it, holding
// makes the b wait w each: hold while that is cheaper, and never past one
// flush or twice the return estimate ret. A lone committer is never held
// (nobody is due), nor are committers slower than a flush; a cohort
// returning well inside a flush re-forms from any split.
func holdWorth(b, r int, w, s, since, ret time.Duration) bool {
	return time.Duration(b)*w < time.Duration(r)*(s-w) && since < min(s, 2*ret)
}

// start: decide said flush, and it starts at now. It returns what OnFlush
// will report, records and fsync time aside.
func (s *sched) start(now time.Time) Flush {
	fl := Flush{Waiters: s.waiters, Hold: s.outcome(now), InFlight: s.inFlight}
	if fl.Hold != HoldNone {
		fl.Held = now.Sub(s.began)
	}
	s.inFlight++
	s.youngAt, s.young = now, fl.Hold == HoldReady
	s.waiters, s.sync, s.full = 0, false, false
	s.began, s.prev = time.Time{}, time.Time{}
	return fl
}

// synced: a flush's write and fsync returned, took after it started.
func (s *sched) synced(took time.Duration) { s.flush = took }

// resolved: the oldest flush resolved at now, acknowledging waiters (0 if
// it failed); acks under a flush apart add up in due, as overlapping
// flushes ack a cohort in parts. It reports whether to kick the flusher.
func (s *sched) resolved(now time.Time, waiters int) bool {
	s.inFlight--
	if waiters > 0 {
		if since := now.Sub(s.ackAt); since >= s.flush && s.due > 0 {
			s.sample(since) // they take at least this long
			s.due = 0
		}
		s.due, s.ackAt = s.due+waiters, now
	}
	kick := s.blocked
	s.blocked = false
	return kick
}

// sample folds one return time, capped at a flush (a slower one tells the
// hold no more), into ret and its distance from ret into dev: EWMAs, ¼.
func (s *sched) sample(d time.Duration) {
	d = min(d, s.flush) - s.ret
	s.dev += (max(d, -d) - s.dev) / 4
	s.ret += d / 4
}
