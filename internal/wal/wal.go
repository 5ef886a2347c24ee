package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
// mutex, committers attach to the *current batch*, and a single flusher
// goroutine writes and fsyncs the whole buffer at once, resolving every
// waiter of that batch together — one log I/O amortized across all the
// commits that arrived while the previous one was in flight (the DGCC
// observation: keep the commit hot path off the log's critical section).
//
// Batching is driven four ways:
//
//   - backpressure (always): records arriving while a flush is in
//     progress pile into the next batch, so batch size adapts to fsync
//     latency with no tuning;
//   - the hold (default): the flusher knows how many of the committers
//     the last batch acknowledged are still due back and about when, and
//     sleeps on the open batch while waiting for them costs its waiters
//     less than flushing without them would cost those due (holdWorth):
//     a closed-loop cohort shares one fsync instead of splitting over
//     two, and a lone or open-loop committer never waits;
//   - FlushInterval: with a positive interval the flusher instead waits
//     that fixed time after a batch's first commit marker before
//     flushing, trading commit latency for larger batches;
//   - FlushBytes: a batch that grows past this threshold is flushed
//     early, cutting either wait short.
//
// Only commit markers, Sync, Close and the byte threshold wake the
// flusher. A record appended without waiting is a committer's write, and
// that committer's marker follows it at once.
//
// Ack order vs flush order: a waiter is only released after *its* batch
// — which contains its marker and every record appended before it — is
// durable. The engine enqueues a transaction's writes and commit marker
// before making the commit visible in memory, so any transaction that
// observes committed data has its own marker ordered after the marker of
// what it read; a torn tail therefore never keeps a dependent while
// dropping its dependency (DESIGN.md §10.3 gives the full argument).

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log closed")

// Options tunes a Log. The zero value is a usable default: one flusher
// goroutine group-commits every batch with one fsync, holding a batch
// open only while committers due back are worth waiting for. A lone
// committer pays exactly one fsync per commit.
type Options struct {
	// FlushInterval is a fixed group-commit window: how long the flusher
	// waits after a batch's first commit marker before flushing it, so
	// concurrent committers can share the fsync. 0 (the default) decides
	// per batch: flush as soon as the flusher wakes, unless committers the
	// last flush acknowledged are due back soon enough to be worth waiting
	// for (holdWorth) — and then for at most one flush time.
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
	// OnFlush, if set, is invoked after every successful write+fsync. It
	// runs on the flushing goroutine with the file lock held — the
	// observability plane hangs histograms and trace events off it — so it
	// must be fast and must not call back into the Log.
	OnFlush func(Flush)
}

// Flush describes one successful write+fsync to Options.OnFlush.
type Flush struct {
	Records int64         // records written
	Sync    time.Duration // the fsync alone; zero under NoSync
	Waiters int           // commit markers the batch acknowledges
	Held    time.Duration // how long the flusher held the batch open
	Hold    HoldOutcome
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
	path string

	mu      sync.Mutex
	f       vfs.File
	buf     []byte // pending encoded frames
	spare   []byte // idle half of the double buffer
	bufRecs int64  // records encoded in buf, reported to OnFlush
	cur     *batch // batch the next flush resolves; nil if no waiter yet
	size    int64  // bytes appended since Open/Reset (durable + pending)
	closed  bool
	err     error // sticky I/O error; fails all subsequent commits

	// ioMu serializes file I/O: the flusher's write+fsync (which runs
	// outside mu) against Reset's truncate. Without it an in-flight Write
	// could interleave with Truncate(0)+Seek(0) and leave a zero-filled
	// hole at the head of the log — zeros decode as a CRC-valid empty
	// frame, so Replay would stop at offset 0 and silently discard every
	// later record. Lock order: mu before ioMu, never the reverse.
	ioMu sync.Mutex

	// What the hold decides on (holdLeft), guarded by mu: due counts the
	// commit waiters the last acknowledged batch resolved that have not
	// enqueued a commit marker since, ackAt is when it resolved them, ret
	// estimates how long after an acknowledgement its committers take to
	// all be back, and lastFlush is how long the last write+fsync took.
	due                 int
	ackAt               time.Time
	ret, dev, lastFlush time.Duration

	kick chan struct{} // capacity 1: a commit marker, a Sync or the byte threshold
	quit chan struct{}
	done chan struct{} // flusher exited

	records, appendedBytes, flushedBytes atomic.Int64
	batches, syncs                       atomic.Int64
	commitWaits, resets, dropped         atomic.Int64
}

// batch is one group-commit unit: every waiter attached to it resolves
// together when its bytes are durable (or the flush fails). waiters
// counts its commit markers and sync records a Sync that wants it flushed
// now; both are maintained under Log.mu.
type batch struct {
	done    chan struct{}
	waiters int
	sync    bool
	err     error
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
		opts: opts,
		path: path,
		f:    f,
		size: end,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
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
	b, err := l.append(r, true)
	if err != nil {
		return func() error { return err }
	}
	return func() error {
		<-b.done
		return b.err
	}
}

// append encodes r into the pending buffer and, when want is set,
// returns the batch the caller should wait on.
func (l *Log) append(r *Record, want bool) (*batch, error) {
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
	var b *batch
	if want {
		if l.cur == nil {
			l.cur = &batch{done: make(chan struct{})}
		}
		b = l.cur
		b.waiters++
		if l.due > 0 {
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
	return b, nil
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
	if l.cur == nil {
		l.cur = &batch{done: make(chan struct{})}
	}
	b := l.cur
	b.sync = true
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	<-b.done
	return b.err
}

// Reset truncates the log to empty — called after a snapshot has been
// made durable. Commit markers must not race Reset (the engine
// guarantees this by holding every admission gate, which every marker
// producer shares). Racing appends are tolerated: the truncate
// is serialized against the flusher's file I/O via ioMu, so it can never
// interleave with a buffer write and tear the log head, and records
// still in the in-memory buffer are carried over and flushed into the
// fresh log rather than dropped.
func (l *Log) Reset() error {
	// Complete any in-flight batch first so its bytes land at the old
	// offsets (about to be truncated) rather than after the rewind.
	if err := l.Sync(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	l.ioMu.Lock()
	terr := l.f.Truncate(0)
	var serr error
	if terr == nil {
		_, serr = l.f.Seek(0, io.SeekStart)
	}
	l.ioMu.Unlock()
	if terr != nil {
		l.err = fmt.Errorf("wal: truncating log: %w", terr)
		return l.err
	}
	if serr != nil {
		l.err = fmt.Errorf("wal: rewinding log: %w", serr)
		return l.err
	}
	l.size = int64(len(l.buf))
	l.resets.Add(1)
	return nil
}

// Close flushes and fsyncs the batch commit waiters are attached to,
// resolves them, and closes the file; records no commit marker follows
// are dropped, as replay would discard them. Subsequent appends fail with
// ErrClosed. It returns the sticky I/O error, if any.
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
	<-l.done // flusher performed its final flush and exited
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Close(); l.err == nil {
		l.err = err
	}
	return l.err
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
// the byte threshold, it holds the batch open for as long as hold sees
// fit, then writes and fsyncs the whole buffer and resolves the batch's
// waiters together.
func (l *Log) flusher() {
	defer close(l.done)
	for {
		select {
		case <-l.quit:
			l.flushOnce(Flush{})
			return
		case <-l.kick:
		}
		held, how := l.hold()
		l.flushOnce(Flush{Held: held, Hold: how})
	}
}

// hold parks the flusher for as long as holdLeft says the open batch
// should be held. It sleeps — every commit marker, a Sync or the byte
// threshold wakes it through kick to decide afresh, and one timer ends
// the hold at the bound its first look set — and reports how long it held
// and how that ended. It also returns when the log closes.
func (l *Log) hold() (time.Duration, HoldOutcome) {
	var timer *time.Timer
	var began, prev time.Time
	for {
		l.mu.Lock()
		now := time.Now()
		left := l.holdLeft(now, prev)
		l.mu.Unlock()
		switch {
		case left <= 0 && timer == nil:
			return 0, HoldNone
		case left <= 0:
			return now.Sub(began), HoldReady
		case timer == nil:
			began, timer = now, time.NewTimer(left)
			defer timer.Stop()
		}
		prev = now
		select {
		case <-l.kick:
		case <-timer.C:
			return time.Since(began), HoldExpired
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
	if l.cur == nil || len(l.buf) >= l.opts.FlushBytes {
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

// flushOnce swaps out the pending buffer and current batch, writes and
// fsyncs outside the lock, and resolves the batch; writes below the byte
// threshold with no marker yet are left for the one behind them. On
// failure it latches the sticky error and — before returning — also
// fails any batch that formed while the doomed flush was in flight, so
// every queued commit waiter observes the failure immediately rather
// than waiting for a kick that may never come. fl carries the hold's
// outcome through to OnFlush.
func (l *Log) flushOnce(fl Flush) {
	l.mu.Lock()
	if l.cur == nil && len(l.buf) < l.opts.FlushBytes {
		l.mu.Unlock()
		return
	}
	buf, b := l.buf, l.cur
	fl.Records = l.bufRecs
	l.buf, l.spare = l.spare[:0], nil
	l.bufRecs = 0
	l.cur = nil
	err := l.err
	l.mu.Unlock()
	if b != nil {
		fl.Waiters = b.waiters
	}
	start := time.Now()
	if err == nil {
		err = l.writeAndSync(buf, fl)
	}
	now := time.Now()
	var stranded *batch
	l.mu.Lock()
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		// Waiters that attached after the swap above joined a fresh batch
		// expecting a future flush; with the log now poisoned, append()
		// rejects all newcomers, so nothing would ever kick that flush.
		// Resolve them with the sticky error here.
		stranded, l.cur = l.cur, nil
	}
	l.lastFlush = now.Sub(start)
	if fl.Waiters > 0 {
		// The batch's committers are due back from now; any the previous
		// acknowledgement still misses took at least this long.
		if l.due > 0 {
			l.sampleReturn(now.Sub(l.ackAt))
		}
		l.due, l.ackAt = fl.Waiters, now
	}
	l.spare = buf[:0]
	l.mu.Unlock()
	if b != nil {
		b.err = err
		close(b.done)
	}
	if stranded != nil {
		stranded.err = err
		close(stranded.done)
	}
}

// writeAndSync writes buf to the file and fsyncs (unless NoSync); an
// empty buf (a Sync with nothing pending) is only fsynced. fl is what the
// caller knows of the flush, completed here and reported to OnFlush. File
// I/O is serialized against Reset's truncate via ioMu.
func (l *Log) writeAndSync(buf []byte, fl Flush) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if len(buf) > 0 {
		// FlushedBytes advances by what actually hit the file: a short
		// write (ENOSPC mid-buffer, injected fault) must not claim bytes
		// the file never received, or the accounting would overstate the
		// durable prefix.
		n, err := l.f.Write(buf)
		l.flushedBytes.Add(int64(n))
		if err != nil {
			return fmt.Errorf("wal: writing log: %w", err)
		}
		if n < len(buf) {
			return fmt.Errorf("wal: writing log: %w (%d of %d bytes)", io.ErrShortWrite, n, len(buf))
		}
	}
	if !l.opts.NoSync {
		syncStart := time.Now()
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing log: %w", err)
		}
		fl.Sync = time.Since(syncStart)
		l.syncs.Add(1)
	}
	l.batches.Add(1)
	if l.opts.OnFlush != nil {
		l.opts.OnFlush(fl)
	}
	return nil
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
