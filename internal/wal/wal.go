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
// When to flush is sched's decision (sched.go), taken afresh each time the
// flusher wakes. A closed-loop cohort shares one fsync: the open batch is
// held while committers recent batches acknowledged are due back soon
// enough that waiting costs less than flushing without them (holdWorth).
// A lone commit is not held: nobody is due. Open-loop commits are not
// held once more than one marker in sixteen arrives with nobody due
// (strayMax): those counted due are then not the ones arriving, and holds
// mostly run to their bound. An unheld batch starts beside the flushes in
// flight unless the youngest is half a flush old or either was held for a
// cohort; then records pile into the next batch (backpressure).
// FlushInterval > 0 holds each batch a fixed time instead; FlushBytes and
// Sync end either wait.
//
// Ack order vs flush order: a waiter is only released once its batch and
// every batch before it are durable. The engine enqueues a transaction's
// writes and marker before making the commit visible, so a torn tail never
// keeps a dependent while dropping its dependency (DESIGN.md §10.3).

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log closed")

// maxInFlight bounds the flushes whose fsync runs at once.
const maxInFlight = 8

// Options tunes a Log. The zero value is a usable default, in which a
// lone committer pays exactly one fsync per commit.
type Options struct {
	// FlushInterval is a fixed group-commit window: how long the flusher
	// waits after a batch's first commit marker before flushing it. 0 (the
	// default) holds a batch only while committers due back are worth
	// waiting for (holdWorth), and then for at most one flush time.
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
	buf     []byte       // pending encoded frames
	spare   []byte       // idle half of the double buffer
	bufRecs int64        // records encoded in buf, reported to OnFlush
	next    func() error // the wait the open batch's committers share
	size    int64        // bytes appended since Open/Reset (durable + pending)
	err     error        // sticky I/O error; fails all subsequent commits
	s       sched        // when the open batch is flushed

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

	kick chan struct{} // capacity 1: wakes the flusher to decide afresh
	done chan struct{} // flusher and syncers exited

	records, appendedBytes, flushedBytes atomic.Int64
	batches, syncs                       atomic.Int64
	commitWaits, resets, dropped         atomic.Int64
}

// slot is a flush in flight.
type slot struct {
	seq   uint64
	start time.Time // when its write began
	fl    Flush
	done  bool // its write and fsync have returned
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
		done:   make(chan struct{}),
		s:      sched{interval: opts.FlushInterval},
	}
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

// append encodes r into the pending buffer and returns the wait function
// of the batch it joins, which Commit (want set) hands back.
func (l *Log) append(r *Record, want bool) (func() error, error) {
	l.mu.Lock()
	if err := l.usable(); err != nil {
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
	if want && l.next == nil {
		seq := l.tail
		l.next = func() error { return l.wait(seq) }
	}
	wait := l.next // Append discards it
	kick := l.s.append(time.Now(), want, len(l.buf) >= l.opts.FlushBytes)
	l.mu.Unlock()
	if kick {
		l.wake()
	}
	return wait, nil
}

// usable reports why nothing may be logged any more, if anything: the log
// is closed or poisoned. Caller holds l.mu.
func (l *Log) usable() error {
	if l.s.closing {
		return ErrClosed
	}
	return l.err
}

// wake kicks the flusher to decide afresh. The kick channel has capacity
// 1, so signals coalesce.
func (l *Log) wake() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
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
	if err := l.usable(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.s.sync = true
	seq := l.tail
	l.mu.Unlock()
	l.wake()
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
	if err := l.usable(); err != nil {
		return err
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
	if l.s.closing {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.s.closing = true
	l.mu.Unlock()
	l.wake()
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
	return l.s.ret
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

// flusher is the group-commit loop and its one sleep: it flushes the open
// batch when sched says so, else sleeps until kicked or the hold's bound.
// Closed with nothing left to flush, it lets the syncers finish.
func (l *Log) flusher() {
	defer close(l.done)
	timer := time.NewTimer(forever)
	for {
		l.mu.Lock()
		now := time.Now()
		d := l.s.decide(now)
		if d == 0 {
			l.flushOnce(now)
			continue
		}
		exit := l.s.closing && !l.s.pending()
		l.mu.Unlock()
		if exit {
			break
		}
		timer.Reset(d)
		select {
		case <-l.kick:
		case <-timer.C:
		}
		timer.Stop()
	}
	close(l.syncq)
	l.syncers.Wait()
}

// flushOnce swaps out the pending buffer and open batch at now, writes the
// buffer outside l.mu (held on entry) and hands the flush to a syncer. A
// poisoned log writes nothing, so no flush lands after a torn one.
func (l *Log) flushOnce(now time.Time) {
	s := &l.ring[l.tail%maxInFlight]
	s.seq, s.start, s.fl = l.tail, now, l.s.start(now)
	s.fl.Records = l.bufRecs
	l.tail++
	buf := l.buf
	l.buf, l.spare = l.spare[:0], nil
	l.bufRecs = 0
	l.next = nil
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
	l.syncq <- s // never blocks: sched keeps at most maxInFlight in flight
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
// after it, in order, one OnFlush at a time.
func (l *Log) complete(s *slot, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.done = true
	l.s.synced(time.Since(s.start))
	if err != nil {
		l.poison(s.seq, err)
	}
	for h := s; h.done && h.seq == l.head; h = &l.ring[l.head%maxInFlight] {
		waiters := 0
		if h.seq < l.failed {
			l.mu.Unlock()
			l.batches.Add(1)
			if l.opts.OnFlush != nil {
				l.opts.OnFlush(h.fl)
			}
			l.mu.Lock()
			waiters = h.fl.Waiters
		}
		if l.s.resolved(time.Now(), waiters) {
			l.wake()
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
