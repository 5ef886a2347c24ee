package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hdd/internal/vfs"
)

// Group commit.
//
// Serializing an fsync per commit caps throughput at 1/fsync-latency no
// matter how many committers run. The Log instead batches: appenders
// encode their record into a shared in-memory buffer under a short
// mutex, committers attach to the *current batch*, and a flusher
// goroutine writes the whole buffer in log order and hands its one fsync
// to a syncer, going back for the next batch while it runs (DGCC: keep
// the commit hot path off the log's critical section). Batches resolve in
// log order; a failed write or fsync fails every later batch too.
//
// Batching is driven four ways:
//
//   - backpressure (always): a batch starts beside the flushes in flight
//     only when room allows; otherwise records pile into the next batch,
//     so batch size adapts to fsync latency with no tuning;
//   - the hold (default): the flusher sleeps on the open batch while the
//     committers recent batches acknowledged are due back soon enough
//     that waiting for them costs less than flushing without them
//     (holdWorth): a closed-loop cohort shares one fsync instead of
//     splitting over two, and a lone or open-loop committer never waits;
//   - FlushInterval > 0: the flusher instead waits that fixed time after
//     a batch's first commit marker, trading latency for larger batches;
//   - FlushBytes: a batch that grows past this threshold is flushed
//     early, cutting either wait short.
//
// Only commit markers, Sync, Close and the byte threshold wake the
// flusher. A record appended without waiting is a committer's write, and
// that committer's marker follows it at once.
//
// Ack order vs flush order: a waiter is only released once its batch and
// every batch before it are durable. The engine enqueues a transaction's
// writes and marker before making the commit visible, so a torn tail never
// keeps a dependent while dropping its dependency (DESIGN.md §10.3).

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log closed")

// maxInFlight bounds the flushes whose fsync runs at once.
const maxInFlight = 8

// Options tunes a Log. The zero value is a usable default: the flusher
// group-commits every batch with one fsync, holding a batch open only
// while committers due back are worth waiting for. A lone committer pays
// exactly one fsync per commit.
type Options struct {
	// FlushInterval is a fixed group-commit window: how long the flusher
	// waits after a batch's first commit marker before flushing it, so
	// concurrent committers can share the fsync. 0 (the default) decides
	// per batch: flush as soon as the flusher wakes, unless committers
	// recent flushes acknowledged are due back soon enough to be worth
	// waiting for (holdWorth) — and then for at most one flush time.
	FlushInterval time.Duration
	// FlushBytes flushes a batch early once this many bytes are pending,
	// bounding buffered memory under write bursts. Defaults to 256 KiB.
	FlushBytes int
	// NoSync skips fsync entirely (write-only durability, for tests and
	// for measuring the non-sync cost of logging).
	NoSync bool
	// FS is the filesystem the log writes through; nil means the real one
	// (vfs.OS). Tests substitute a fault injector to exercise the
	// fail-stop contract.
	FS vfs.FS
	// OnFlush, if set, is invoked after every successful write+fsync, in
	// log order, on the goroutine that resolves the batch — the
	// observability plane hangs histograms and trace events off it — so it
	// must be fast and must not call back into the Log.
	OnFlush func(Flush)
}

// Flush describes one successful write+fsync to Options.OnFlush.
type Flush struct {
	Records  int64         // records written
	Sync     time.Duration // the fsync alone; zero under NoSync
	Waiters  int           // commit markers the batch acknowledges
	Held     time.Duration // how long the flusher held the batch open
	Hold     HoldOutcome
	InFlight int // flushes in flight when this one started
}

// HoldOutcome says how the flusher's hold on a batch ended.
type HoldOutcome uint8

const (
	HoldNone    HoldOutcome = iota // flushed at once: nobody worth waiting for
	HoldReady                      // ended before its bound: the committers due are back
	HoldExpired                    // ran to its bound, or through its FlushInterval
)

func (o Options) withDefaults() Options {
	if o.FlushBytes <= 0 {
		o.FlushBytes = 256 << 10
	}
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
	return o
}

// Stats are the Log's cumulative counters, all monotone.
type Stats struct {
	// Records and AppendedBytes count everything enqueued (framing
	// included); FlushedBytes counts what reached the file.
	Records, AppendedBytes, FlushedBytes int64
	// Batches is the number of flush batches written; Syncs the number of
	// fsyncs issued. Records/Batches is the group-commit amortization.
	Batches, Syncs int64
	// CommitWaits counts commit markers that waited on a batch.
	CommitWaits int64
	// Resets counts log truncations (one per snapshot).
	Resets int64
	// Dropped counts records discarded because the log was already closed
	// or had a sticky I/O error.
	Dropped int64
}

// Log is an append-only record log with a group-commit pipeline. It is
// safe for concurrent use.
type Log struct {
	opts Options

	mu      sync.Mutex
	f       vfs.File
	buf     []byte // pending encoded frames
	spare   []byte // idle half of the double buffer
	bufRecs int64  // records encoded in buf, reported to OnFlush
	cur     batch  // the batch the next flush takes
	size    int64  // bytes appended since Open/Reset (durable + pending)
	closed  bool
	err     error // sticky I/O error; fails all subsequent commits

	// Flushes are numbered in log order: ring holds head to tail-1, those
	// in flight; every one from failed on fails with err. Both wake resolved.
	ring               [maxInFlight]slot
	head, tail, failed uint64
	resolved           sync.Cond
	syncq              chan *slot // written flushes awaiting their fsync
	syncers            sync.WaitGroup
	// One read-only descriptor per syncer, opened before any write: Linux
	// reports a writeback error once per open file (DESIGN.md §10.3).
	syncf [maxInFlight]vfs.File

	// ioMu serializes the flusher's write against Reset's truncate, which
	// could leave a zero-filled hole Replay stops at. Lock order: mu, ioMu.
	ioMu sync.Mutex

	// What the hold decides on, under mu: due counts committers acknowledged
	// and not back yet since ackAt, ret estimates how long they take to all
	// be back, lastFlush is the last flush's own write+fsync.
	due                 int
	ackAt               time.Time
	ret, dev, lastFlush time.Duration
	timer               *time.Timer // the hold's bound, stopped between holds

	kick chan struct{} // capacity 1: a commit marker, a Sync or the byte threshold
	quit chan struct{}
	done chan struct{} // flusher and syncers exited

	records, appendedBytes, flushedBytes atomic.Int64
	batches, syncs                       atomic.Int64
	commitWaits, resets, dropped         atomic.Int64
}

// batch is the open group-commit unit, under Log.mu: its commit markers,
// whether a Sync wants it flushed now, and the wait its committers share.
type batch struct {
	waiters int
	sync    bool
	wait    func() error
	back    int // markers that came back due
}

// cohort reports whether the open batch, whose hold ended as how, carries
// a returning cohort: held until those due were back, or 2+ markers all
// came back due and nobody is left due. Caller holds l.mu.
func (l *Log) cohort(how HoldOutcome) bool {
	return how == HoldReady || l.cur.back > 1 && l.cur.back == l.cur.waiters && l.due == 0
}

// slot is a flush in flight.
type slot struct {
	seq    uint64
	start  time.Time // when its write began
	fl     Flush
	done   bool // its write and fsync have returned
	cohort bool // it carried a returning cohort
}

// Open opens (creating if absent) the log at path for appending,
// truncating it first to validSize — the valid prefix a prior Replay
// reported — so a torn tail never precedes fresh records. validSize < 0
// skips the truncation.
func Open(path string, validSize int64, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	f, err := opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening log: %w", err)
	}
	if validSize >= 0 {
		if err := f.Truncate(validSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seeking log end: %w", err)
	}
	l := &Log{
		opts:   opts,
		f:      f,
		size:   end,
		failed: math.MaxUint64,
		syncq:  make(chan *slot, maxInFlight),
		kick:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		timer:  time.NewTimer(time.Hour),
	}
	l.timer.Stop()
	l.resolved.L = &l.mu
	for i := range l.syncf {
		if l.syncf[i], err = opts.FS.OpenFile(path, os.O_RDONLY, 0); err != nil {
			l.closeFiles()
			return nil, fmt.Errorf("wal: opening log for fsync: %w", err)
		}
	}
	l.syncers.Add(maxInFlight)
	for _, sf := range l.syncf {
		go l.syncer(sf)
	}
	go l.flusher()
	return l, nil
}

// Append enqueues one record without waiting for durability. The record
// becomes durable with the batch that carries it; an I/O error surfaces
// on the commits and Syncs that follow. Append on a closed or failed log
// drops the record (counted in Stats().Dropped) — safe because replay
// discards a write no durable commit marker follows, and the commit that
// would follow fails the same way.
func (l *Log) Append(r *Record) error {
	_, err := l.append(r, false)
	return err
}

// Commit enqueues one record and returns a wait function that blocks
// until the record is durable, returning the flush error. The wait
// function must be called without holding engine locks that a flush
// could need (it blocks on the flusher).
func (l *Log) Commit(r *Record) func() error {
	l.commitWaits.Add(1)
	wait, err := l.append(r, true)
	if err != nil {
		return func() error { return err }
	}
	return wait
}

// append encodes r into the pending buffer and, when want is set,
// returns the wait function of the batch it joins.
func (l *Log) append(r *Record, want bool) (func() error, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.dropped.Add(1)
		return nil, ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		l.dropped.Add(1)
		return nil, err
	}
	start := len(l.buf)
	l.buf = AppendFrame(l.buf, r)
	n := int64(len(l.buf) - start)
	l.size += n
	l.bufRecs++
	l.records.Add(1)
	l.appendedBytes.Add(n)
	var wait func() error
	if want {
		if l.cur.wait == nil {
			seq := l.tail
			l.cur.wait = func() error { return l.wait(seq) }
		}
		wait = l.cur.wait
		l.cur.waiters++
		if l.due > 0 {
			l.cur.back++
			if l.due--; l.due == 0 {
				l.sampleReturn(time.Since(l.ackAt))
			}
		}
	}
	// Wake the flusher for every commit marker (it decides afresh whether
	// the batch is worth holding) and when the byte threshold demands an
	// early flush. The kick channel has capacity 1, so signals coalesce.
	kickNow := want || len(l.buf) >= l.opts.FlushBytes
	l.mu.Unlock()
	if kickNow {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	return wait, nil
}

// wait blocks until flush seq resolves, or one before it fails: its outcome.
func (l *Log) wait(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.head <= seq && seq < l.failed {
		l.resolved.Wait()
	}
	if seq >= l.failed {
		return l.err
	}
	return nil
}

// Sync flushes everything pending and blocks until it is durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.cur.sync = true
	seq := l.tail
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return l.wait(seq)
}

// Reset truncates the log to empty — called after a snapshot has been
// made durable. Commit markers must not race Reset (the engine
// guarantees this by holding every admission gate, which every marker
// producer shares). It flushes what is pending, so that lands before the
// rewind, then truncates under ioMu once no flush is in flight; appends
// racing it go to the fresh log.
func (l *Log) Reset() error {
	if err := l.Sync(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.head < l.tail {
		l.resolved.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	l.ioMu.Lock()
	err := l.f.Truncate(0)
	if err != nil {
		err = fmt.Errorf("wal: truncating log: %w", err)
	} else if _, err = l.f.Seek(0, io.SeekStart); err != nil {
		err = fmt.Errorf("wal: rewinding log: %w", err)
	}
	l.ioMu.Unlock()
	if err != nil {
		l.poison(l.tail, err)
		return l.err
	}
	l.size = int64(len(l.buf))
	l.resets.Add(1)
	return nil
}

// Close flushes and fsyncs the batch commit waiters are attached to,
// resolves every flush, and closes the file; records no commit marker
// follows are dropped, as replay would discard them. Subsequent appends
// fail with ErrClosed. It returns the sticky I/O error, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done // flusher performed its final flush, every flush resolved
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.closeFiles(); l.err == nil {
		l.err = err
	}
	return l.err
}

// closeFiles closes the log's descriptors, joining their errors.
func (l *Log) closeFiles() error {
	err := l.f.Close()
	for _, sf := range l.syncf {
		if sf != nil {
			err = errors.Join(err, sf.Close())
		}
	}
	return err
}

// Err returns the log's sticky I/O error, if any. Once non-nil the log is
// poisoned: every subsequent append and commit fails with it.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Return reports the log's estimate of how long after an acknowledgement
// its committers take to all be back — what the hold decides on.
func (l *Log) Return() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ret
}

// Size reports the bytes appended since Open or the last Reset (durable
// plus pending) — the quantity the engine's snapshotter thresholds on.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Records:       l.records.Load(),
		AppendedBytes: l.appendedBytes.Load(),
		FlushedBytes:  l.flushedBytes.Load(),
		Batches:       l.batches.Load(),
		Syncs:         l.syncs.Load(),
		CommitWaits:   l.commitWaits.Load(),
		Resets:        l.resets.Load(),
		Dropped:       l.dropped.Load(),
	}
}

// flusher is the group-commit loop: woken by a commit marker, a Sync or
// the byte threshold, it holds the batch as long as hold sees fit (again
// after room made it wait) and flushes it; on Close, a last flush.
func (l *Log) flusher() {
	defer close(l.done)
	for {
		select {
		case <-l.quit:
			l.room(HoldNone)
			l.flushOnce(Flush{})
			close(l.syncq) // the syncers finish and resolve what is in flight
			l.syncers.Wait()
			return
		case <-l.kick:
		}
		held, how := l.hold()
		for l.room(how) {
			held, how = l.hold()
		}
		l.flushOnce(Flush{Held: held, Hold: how})
	}
}

// room waits until the open batch, whose hold ended as how, may be
// flushed beside the flushes in flight, and reports whether it waited.
// It may while the youngest is under half a flush time old and neither
// carries a returning cohort (overlapped, a cohort splits), so a commit
// arriving on its own waits for its own flush only.
func (l *Log) room(how HoldOutcome) (waited bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for n := l.tail - l.head; n > 0; n = l.tail - l.head {
		y := &l.ring[(l.tail-1)%maxInFlight]
		if n < maxInFlight && !l.cohort(how) && !y.cohort && time.Since(y.start) < l.lastFlush/2 {
			break
		}
		waited = true
		l.resolved.Wait()
	}
	return waited
}

// hold parks the flusher while holdLeft says to hold the open batch. It
// sleeps — a commit marker, a Sync or the byte threshold wakes it through
// kick to decide afresh; the timer ends it at the bound its first look set
// — and reports how long it held and how that ended, or the log closed.
func (l *Log) hold() (time.Duration, HoldOutcome) {
	var began, prev, end time.Time
	defer l.timer.Stop()
	for {
		l.mu.Lock()
		now := time.Now()
		left := l.holdLeft(now, prev)
		l.mu.Unlock()
		switch {
		case left <= 0 && began.IsZero():
			return 0, HoldNone
		case left <= 0:
			return now.Sub(began), HoldReady
		case began.IsZero():
			began, end = now, now.Add(left)
			l.timer.Reset(left)
		}
		prev = now
		select {
		case <-l.kick:
		case at := <-l.timer.C:
			if !at.Before(end) { // not a tick an earlier hold stopped too late
				return time.Since(began), HoldExpired
			}
		case <-l.quit:
			return time.Since(began), HoldReady
		}
	}
}

// holdLeft reports how much longer the open batch should be held; zero
// or less means flush it now. A FlushInterval is held in full unless the
// byte threshold cuts it. Otherwise the committers due are expected
// within w: the return estimate padded with its mean deviation — arrivals
// as scattered as open-loop traffic's then never look due in time — less
// the time since the acknowledgement. prev is when this hold last looked,
// zero at its first look; a marker has arrived since, so those still due
// are coming no slower than one per now-prev and w is no more than that
// pace predicts: markers back sooner than estimated must not count
// against waiting for the rest. Caller holds l.mu.
func (l *Log) holdLeft(now, prev time.Time) time.Duration {
	if l.cur.waiters == 0 && !l.cur.sync || len(l.buf) >= l.opts.FlushBytes {
		return 0
	}
	if l.opts.FlushInterval > 0 {
		return l.opts.FlushInterval
	}
	since := now.Sub(l.ackAt)
	w := max(l.ret+l.dev-since, 0)
	if !prev.IsZero() {
		w = min(w, now.Sub(prev)*time.Duration(l.due))
	}
	if l.cur.sync || !holdWorth(l.cur.waiters, l.due, w, l.lastFlush, since, l.ret) {
		return 0
	}
	return min(l.lastFlush, 2*l.ret) - since
}

// holdWorth is the group-commit decision. b commit markers wait in the
// open batch; r committers acknowledged since ago are still due back,
// expected within w; a flush takes s. Flushing now makes the r wait out
// a whole flush behind the b — s-w each — and holding makes the b wait w
// each, so the batch is held while that is the cheaper side, and never
// past one flush time or twice the return estimate ret. A lone committer
// is never held (nobody is due when its marker arrives), nor are
// committers whose return takes a flush time or more; a cohort that
// returns well inside a flush re-forms from any split.
func holdWorth(b, r int, w, s, since, ret time.Duration) bool {
	return time.Duration(b)*w < time.Duration(r)*(s-w) && since < min(s, 2*ret)
}

// sampleReturn folds one observed return time into ret and its distance
// from ret into dev (EWMAs, weight ¼). A return slower than a flush tells
// the hold nothing more than a flush does. Caller holds l.mu.
func (l *Log) sampleReturn(d time.Duration) {
	d = min(d, l.lastFlush) - l.ret
	l.dev += (max(d, -d) - l.dev) / 4
	l.ret += d / 4
}

// flushOnce swaps out the pending buffer and open batch, writes the buffer
// outside the lock and hands the flush to a syncer (writes below the byte
// threshold with no marker wait for the next). A poisoned log writes
// nothing, so no flush lands after a torn one. fl carries the hold outcome.
func (l *Log) flushOnce(fl Flush) {
	l.mu.Lock()
	if l.cur.waiters == 0 && !l.cur.sync && len(l.buf) < l.opts.FlushBytes {
		l.mu.Unlock()
		return
	}
	s := &l.ring[l.tail%maxInFlight]
	fl.Records, fl.Waiters, fl.InFlight = l.bufRecs, l.cur.waiters, int(l.tail-l.head)
	s.seq, s.start, s.fl, s.cohort = l.tail, time.Now(), fl, l.cohort(fl.Hold)
	l.tail++
	buf := l.buf
	l.buf, l.spare = l.spare[:0], nil
	l.bufRecs = 0
	l.cur = batch{}
	err := l.err
	l.mu.Unlock()
	if err == nil && len(buf) > 0 {
		err = l.write(buf)
	}
	l.spare = buf[:0] // only the flusher touches spare
	if err != nil || l.opts.NoSync {
		l.complete(s, err)
		return
	}
	l.syncq <- s // never blocks: room keeps at most maxInFlight in flight
}

// write writes buf to the file, serialized against Reset's truncate.
func (l *Log) write(buf []byte) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	// FlushedBytes counts what reached the file, even of a short write.
	n, err := l.f.Write(buf)
	l.flushedBytes.Add(int64(n))
	if err != nil {
		return fmt.Errorf("wal: writing log: %w", err)
	}
	if n < len(buf) {
		return fmt.Errorf("wal: writing log: %w (%d of %d bytes)", io.ErrShortWrite, n, len(buf))
	}
	return nil
}

// syncer fsyncs each flush from syncq through f, then completes it.
func (l *Log) syncer(f vfs.File) {
	defer l.syncers.Done()
	for s := range l.syncq {
		start, err := time.Now(), f.Sync()
		l.syncs.Add(1)
		if s.fl.Sync = time.Since(start); err != nil {
			err = fmt.Errorf("wal: syncing log: %w", err)
		}
		l.complete(s, err)
	}
}

// complete marks flush s done with err (a failure poisons the log at
// once); if s is the oldest in flight it resolves it and every done flush
// after it, in order, one OnFlush at a time. Acknowledgements under a
// flush time apart add up in due: overlapping flushes ack a cohort in parts.
func (l *Log) complete(s *slot, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.done, l.lastFlush = true, time.Since(s.start)
	if err != nil {
		l.poison(s.seq, err)
	}
	for h := s; h.done && h.seq == l.head; h = &l.ring[l.head%maxInFlight] {
		if h.seq < l.failed {
			if now := time.Now(); h.fl.Waiters > 0 {
				if since := now.Sub(l.ackAt); since >= l.lastFlush && l.due > 0 {
					l.sampleReturn(since)
					l.due = 0
				}
				l.due, l.ackAt = l.due+h.fl.Waiters, now
			}
			l.mu.Unlock()
			l.batches.Add(1)
			if l.opts.OnFlush != nil {
				l.opts.OnFlush(h.fl)
			}
			l.mu.Lock()
		}
		h.done = false
		l.head++
		l.resolved.Broadcast()
	}
}

// poison latches err as the sticky error and fails flush seq and every
// flush after it, releasing their waiters at once. Caller holds l.mu.
func (l *Log) poison(seq uint64, err error) {
	if l.err == nil {
		l.err = err
	}
	if seq < l.failed {
		l.failed = seq
		l.resolved.Broadcast()
	}
}

// Replay reads records from r, calling apply for each valid one in log
// order, until the stream ends. valid is the byte offset of the end of
// the last fully valid record — the size the caller should truncate the
// file to before appending (Open does it). torn reports whether trailing
// bytes were discarded: a severed final frame, an implausible length, a
// CRC mismatch, or an undecodable record all end replay cleanly there.
// err is non-nil only for apply errors and reader failures other than
// EOF; corruption is never an error, because a crash can manufacture it.
func Replay(r io.Reader, apply func(Record) error) (valid int64, records int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var header [frameHeader]byte
	payload := make([]byte, 0, 4096)
	for {
		_, herr := io.ReadFull(br, header[:])
		if herr == io.EOF {
			return valid, records, false, nil
		}
		if herr == io.ErrUnexpectedEOF {
			return valid, records, true, nil
		}
		if herr != nil {
			return valid, records, false, fmt.Errorf("wal: reading log: %w", herr)
		}
		n := binary.BigEndian.Uint32(header[:4])
		sum := binary.BigEndian.Uint32(header[4:])
		if n > MaxRecord {
			return valid, records, true, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, perr := io.ReadFull(br, payload); perr != nil {
			if perr == io.EOF || perr == io.ErrUnexpectedEOF {
				return valid, records, true, nil
			}
			return valid, records, false, fmt.Errorf("wal: reading log: %w", perr)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return valid, records, true, nil
		}
		rec, derr := DecodeRecord(payload)
		if derr != nil {
			return valid, records, true, nil
		}
		if err := apply(rec); err != nil {
			return valid, records, false, err
		}
		valid += int64(frameHeader) + int64(n)
		records++
	}
}
