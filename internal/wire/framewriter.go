package wire

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"time"
)

// FrameWriter is the write side of a multiplexed connection,
// shared by every goroutine that sends frames on it (client callers on
// one end, the server's session goroutine and handlers on the other).
// Frames are appended to one buffer under a mutex and leave in as few
// socket writes as the scheduler allows. Whoever wakes a burst of senders
// at once may Hold the writer and Release it after the last wake-up: the
// senders only append, and the Release flushes for all of them. Outside a
// hold, a sender that is not alone on the connection yields once before
// flushing, so goroutines woken together append first, and whoever runs
// next flushes for all; a sender that is alone flushes at once.
//
// The write deadline is armed once per unflushed burst. The first write
// error latches and closes the connection; every later call returns it.
type FrameWriter struct {
	nc      net.Conn
	timeout time.Duration
	onFlush func(frames int) // nil, or called under mu after each socket flush

	mu       sync.Mutex
	bw       *bufio.Writer
	appended uint64 // frames appended so far
	flushed  uint64 // value of appended at the last flush
	flushes  uint64 // socket flushes so far
	yields   uint64
	held     bool // between Hold and Release: Send leaves the flush to Release
	err      error
}

// NewFrameWriter wraps nc with a buffer of size bytes — what one socket
// write carries, and the most a peer that stopped reading can pin. Each
// burst must reach the socket within timeout. onFlush, when non-nil, is
// told how many frames each socket flush carried.
func NewFrameWriter(nc net.Conn, size int, timeout time.Duration, onFlush func(frames int)) *FrameWriter {
	return &FrameWriter{nc: nc, timeout: timeout, onFlush: onFlush,
		bw: bufio.NewWriterSize(nc, size)}
}

// Append buffers one frame without flushing; the caller owes a Flush. It
// writes to the socket only to make room, blocking — until the deadline —
// when the peer has stopped reading.
func (w *FrameWriter) Append(payload []byte) error {
	w.mu.Lock()
	_, err := w.appendLocked(payload)
	w.mu.Unlock()
	return err
}

// Flush writes out whatever is buffered.
func (w *FrameWriter) Flush() error {
	w.mu.Lock()
	err := w.flushLocked()
	w.mu.Unlock()
	return err
}

// Send appends one frame and returns once it is flushed or covered by a
// Release. Under a hold it only appends. Otherwise shared says other
// requests are in flight on this connection: the sender then yields once
// between append and flush, and skips the flush if a later sender's, or a
// hold begun meanwhile, covers its frame. A sender that is alone flushes
// at once.
func (w *FrameWriter) Send(payload []byte, shared bool) error {
	w.mu.Lock()
	seq, err := w.appendLocked(payload)
	if err == nil && shared && !w.held {
		w.yields++
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
		err = w.err
	}
	if err == nil && w.flushed < seq && !w.held {
		err = w.flushLocked()
	}
	w.mu.Unlock()
	return err
}

// Hold puts the writer on hold until Release: Sends append and return
// without yielding or flushing. The holder is waking the senders (the
// client's reader delivering a burst of responses), and between Hold and
// Release it must never block, so a frame appended under the hold never
// waits on a sender that stops sending.
func (w *FrameWriter) Hold() {
	w.mu.Lock()
	w.held = true
	w.mu.Unlock()
}

// Release ends a hold. It yields once, so the senders the holder woke
// append first, then flushes everything appended under the hold in one
// socket write. Its error is the writer's latched error, as Send's is.
func (w *FrameWriter) Release() error {
	runtime.Gosched()
	w.mu.Lock()
	w.yields++
	w.held = false
	err := w.flushLocked()
	w.mu.Unlock()
	return err
}

// Yields reports how many times a Send or a Release yielded before
// flushing.
func (w *FrameWriter) Yields() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.yields
}

// Flushes reports the socket flushes so far and the frames they carried.
func (w *FrameWriter) Flushes() (flushes, frames uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushes, w.flushed
}

func (w *FrameWriter) appendLocked(payload []byte) (seq uint64, err error) {
	if w.err != nil {
		return 0, w.err
	}
	// Flush explicitly rather than letting bufio do it mid-frame: every
	// socket write is then counted and runs under a fresh deadline.
	if w.bw.Buffered() > 0 && w.bw.Available() < 4+len(payload) {
		if err := w.flushLocked(); err != nil {
			return 0, err
		}
	}
	if w.appended == w.flushed {
		w.nc.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	if err := WriteFrame(w.bw, payload); err != nil {
		return 0, w.fail(err)
	}
	w.appended++
	return w.appended, nil
}

func (w *FrameWriter) flushLocked() error {
	if w.err != nil || w.appended == w.flushed {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	if w.onFlush != nil {
		w.onFlush(int(w.appended - w.flushed))
	}
	w.flushes++
	w.flushed = w.appended
	return nil
}

// fail latches the first write error and severs the connection, which
// also wakes the connection's reader.
func (w *FrameWriter) fail(err error) error {
	w.err = err
	w.nc.Close()
	return err
}
