package core

import (
	"sync"

	"hdd/internal/cc"
	"hdd/internal/schema"
)

// Ad-hoc update transactions (§7.1). The paper's future-work section asks
// for a scheme that tolerates transactions whose access pattern is illegal
// for the partition — e.g. an update that reads two incomparable branches
// — without a priori widening the partition for everyone.
//
// This implementation provides the *special handling* path §7.1 motivates
// ("some transactions that are not frequently run … may be left out of the
// pre-analysis intentionally, so that for the majority of the time the
// system can operate under a finer partition while a special handling is
// adopted to take care of this type of transactions"):
//
//   - every ordinary update transaction holds a shared per-class gate for
//     its lifetime (one RLock/RUnlock pair — nanoseconds on the fast
//     path);
//   - an ad-hoc transaction takes, exclusively, the gates of every class
//     that could conflict with its declared access set: it waits for the
//     in-flight update transactions of *those classes* to finish, briefly
//     holds off new ones, and then runs against the latest committed
//     state with no concurrent conflicting update. Classes outside the
//     conflict set keep running — the TST says they cannot touch any
//     segment the ad-hoc transaction accesses, so draining them would buy
//     nothing.
//
// A class c conflicts with an ad-hoc transaction accessing
// A = {writeSeg} ∪ declaredReads iff root(c) ∈ A (the ad-hoc transaction
// may read or overwrite what c writes) or writeSeg ∈ reads(c) (c may read
// what the ad-hoc transaction writes). With every conflicting class
// drained, the ad-hoc transaction runs solo *within its footprint*: every
// dependency points into the past, so it is trivially serializable, and
// its writes get a timestamp later than everything it read.
//
// BeginAdHoc declares no read set, so its conflict set is every class
// (drain the world). BeginAdHocFor narrows the drain to the TST-derived
// conflict set. Either returns an updateTxn of the write segment's class
// that carries its held conflict set and its declared read set.
//
// Deadlock-freedom: ad-hoc transactions acquire their gates in ascending
// class order, and ordinary updates hold exactly one share. Two
// overlapping ad-hoc transactions always contend on a common gate (the
// write segment's own class is in both conflict sets whenever their
// footprints intersect), and the ascending order breaks the cycle.
//
// Read-only transactions are unaffected: Protocol C reads below released
// walls, which the ad-hoc transaction's versions postdate.
//
// Because an ad-hoc transaction blocks conflicting updates, an abandoned
// one is a severe stall; it registers with the reaper like any other
// transaction and is force-aborted past its deadline.

// adhocGate is embedded in Engine: one RWMutex per class. Ordinary
// updates of class c hold classes[c].RLock for their lifetime; ad-hoc
// transactions and the checkpointer take exclusive locks over their
// conflict set in ascending order.
type adhocGate struct {
	classes []sync.RWMutex
}

func (g *adhocGate) init(part *schema.Partition) {
	g.classes = make([]sync.RWMutex, part.NumClasses())
}

// lock acquires the given gates exclusively. classes must be sorted
// ascending — the global acquisition order that keeps concurrent ad-hoc
// transactions (and the checkpointer) deadlock-free.
func (g *adhocGate) lock(classes []schema.ClassID) {
	for _, c := range classes {
		g.classes[c].Lock()
	}
}

func (g *adhocGate) unlock(classes []schema.ClassID) {
	for i := len(classes) - 1; i >= 0; i-- {
		g.classes[classes[i]].Unlock()
	}
}

// allClasses returns the full ascending class list — the conflict set of
// an ad-hoc transaction with an undeclared read set, and of a checkpoint.
func (g *adhocGate) allClasses() []schema.ClassID {
	out := make([]schema.ClassID, len(g.classes))
	for i := range out {
		out[i] = schema.ClassID(i)
	}
	return out
}

func (g *adhocGate) lockAll() []schema.ClassID {
	all := g.allClasses()
	g.lock(all)
	return all
}

// enter admits an update transaction of class: a shared hold on that
// class's gate, or, for an ad-hoc transaction, its conflict set held
// exclusively. exit releases what enter took.
func (g *adhocGate) enter(class schema.ClassID, held []schema.ClassID) {
	if held == nil {
		g.classes[class].RLock()
		return
	}
	g.lock(held)
}

func (g *adhocGate) exit(class schema.ClassID, held []schema.ClassID) {
	if held == nil {
		g.classes[class].RUnlock()
		return
	}
	g.unlock(held)
}

// conflictClasses computes the ascending set of classes whose gates an
// ad-hoc transaction writing writeSeg and reading the segments of accessed
// (which includes writeSeg) must drain.
func (e *Engine) conflictClasses(writeSeg schema.SegmentID, accessed map[schema.SegmentID]bool) []schema.ClassID {
	var out []schema.ClassID
	for c := 0; c < e.part.NumClasses(); c++ {
		cid := schema.ClassID(c)
		if accessed[e.part.Class(cid).Writes] || e.part.MayRead(cid, writeSeg) {
			out = append(out, cid)
		}
	}
	return out
}

// BeginAdHoc starts an ad-hoc update transaction that writes writeSeg and
// may read any segment, regardless of the declared class patterns. With no
// declared read set the conflict set is every class, so it blocks until
// all in-flight update transactions complete and holds off new ones until
// it finishes — the conservative §7.1 special-handling path. Use
// BeginAdHocFor when the read set is known; use either sparingly, for the
// rare transactions intentionally left out of the partition analysis.
func (e *Engine) BeginAdHoc(writeSeg schema.SegmentID) (cc.Txn, error) {
	if err := e.checkSegments(writeSeg); err != nil {
		return nil, err
	}
	return e.beginUpdate(schema.ClassID(writeSeg), e.txnTimeout, e.gate.allClasses(), nil)
}

// BeginAdHocFor starts an ad-hoc update transaction that writes writeSeg
// and reads only the declared segments. Only the classes that could
// conflict with that access set are drained and held off; update classes
// whose TST row cannot touch any accessed segment keep running. Reads
// outside the declared set fail and abort the transaction.
func (e *Engine) BeginAdHocFor(writeSeg schema.SegmentID, reads ...schema.SegmentID) (cc.Txn, error) {
	if err := e.checkSegments(reads...); err != nil {
		return nil, err
	}
	if err := e.checkSegments(writeSeg); err != nil {
		return nil, err
	}
	readSet := make(map[schema.SegmentID]bool, len(reads)+1)
	readSet[writeSeg] = true
	for _, s := range reads {
		readSet[s] = true
	}
	return e.beginUpdate(schema.ClassID(writeSeg), e.txnTimeout, e.conflictClasses(writeSeg, readSet), readSet)
}
