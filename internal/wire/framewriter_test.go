package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sinkConn is the write half of a net.Conn: it records what reaches the
// "socket" and how it got there.
type sinkConn struct {
	net.Conn // nil: any method not overridden below panics, on purpose

	mu        sync.Mutex
	buf       bytes.Buffer
	writes    int
	deadlines int
	closes    int
	fail      error
}

func (c *sinkConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		return 0, c.fail
	}
	c.writes++
	return c.buf.Write(p)
}

func (c *sinkConn) SetWriteDeadline(time.Time) error {
	c.mu.Lock()
	c.deadlines++
	c.mu.Unlock()
	return nil
}

func (c *sinkConn) Close() error {
	c.mu.Lock()
	c.closes++
	c.mu.Unlock()
	return nil
}

// frames parses everything written so far.
func (c *sinkConn) frames(t *testing.T) [][]byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	r := bufio.NewReader(bytes.NewReader(c.buf.Bytes()))
	var out [][]byte
	for {
		p, err := ReadFrame(r, nil)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d on the socket: %v", len(out), err)
		}
		out = append(out, p)
	}
}

// flushLog is an onFlush hook recording the frames each flush carried.
type flushLog struct{ perFlush []int }

func (l *flushLog) observe(frames int) { l.perFlush = append(l.perFlush, frames) }

func (l *flushLog) total() (n int) {
	for _, f := range l.perFlush {
		n += f
	}
	return n
}

// TestFrameWriterAloneFlushesEachFrame: a sender alone on the connection
// pays exactly one socket write per frame and never yields.
func TestFrameWriterAloneFlushesEachFrame(t *testing.T) {
	c, log := &sinkConn{}, &flushLog{}
	w := NewFrameWriter(c, 4096, time.Second, log.observe)
	const n = 20
	for i := 0; i < n; i++ {
		if err := w.Send([]byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
		if got := len(c.frames(t)); got != i+1 {
			t.Fatalf("after Send %d the socket holds %d frames: Send returned before its flush", i, got)
		}
	}
	if c.writes != n || len(log.perFlush) != n || log.total() != n {
		t.Fatalf("%d frames took %d socket writes, %d flushes carrying %d frames; want %d of each",
			n, c.writes, len(log.perFlush), log.total(), n)
	}
	if c.deadlines != n {
		t.Fatalf("write deadline armed %d times for %d single-frame bursts", c.deadlines, n)
	}
	if y := w.Yields(); y != 0 {
		t.Fatalf("a sender alone on the connection yielded %d times", y)
	}
}

// TestFrameWriterSharedCoalesces: senders woken together on one P append
// first and leave in (nearly) one socket write; every frame arrives whole.
func TestFrameWriterSharedCoalesces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, log := &sinkConn{}, &flushLog{}
	w := NewFrameWriter(c, 4096, time.Second, log.observe)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- w.Send(bytes.Repeat([]byte{byte(i)}, 8), true)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[byte]bool)
	for _, f := range c.frames(t) {
		if len(f) != 8 || !bytes.Equal(f, bytes.Repeat(f[:1], 8)) {
			t.Fatalf("torn frame on the socket: %v", f)
		}
		seen[f[0]] = true
	}
	if len(seen) != n || log.total() != n {
		t.Fatalf("%d distinct frames on the socket, flush hook counted %d, want %d", len(seen), log.total(), n)
	}
	if len(log.perFlush)*4 > n {
		t.Fatalf("%d senders sharing one P took %d flushes (%v): the yield does not coalesce", n, len(log.perFlush), log.perFlush)
	}
	if y := w.Yields(); y != n {
		t.Fatalf("%d shared sends yielded %d times, want once each", n, y)
	}
}

// TestFrameWriterHold: under a hold, Sends only append — alone or shared,
// they neither yield nor write — and Release flushes them all in one
// socket write with one yield. After it a lone Send flushes at once again.
func TestFrameWriterHold(t *testing.T) {
	c, log := &sinkConn{}, &flushLog{}
	w := NewFrameWriter(c, 4096, time.Second, log.observe)
	w.Hold()
	for i := 0; i < 5; i++ {
		if err := w.Send([]byte{byte(i)}, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.writes != 0 || w.Yields() != 0 {
		t.Fatalf("under a hold: %d socket writes, %d yields, want none", c.writes, w.Yields())
	}
	if err := w.Release(); err != nil {
		t.Fatal(err)
	}
	if c.writes != 1 || len(c.frames(t)) != 5 || w.Yields() != 1 {
		t.Fatalf("Release: %d socket writes carrying %d frames, %d yields; want 1 write of 5 frames, 1 yield",
			c.writes, len(c.frames(t)), w.Yields())
	}
	if err := w.Send([]byte("x"), false); err != nil {
		t.Fatal(err)
	}
	if flushes, frames := w.Flushes(); c.writes != 2 || flushes != 2 || frames != 6 || log.total() != 6 {
		t.Fatalf("after the hold: %d socket writes, Flushes() = %d, %d; want 2 writes, 2 flushes of 6 frames", c.writes, flushes, frames)
	}
}

// TestFrameWriterAppendThenFlush: Append buffers, Flush writes once, the
// deadline is armed once per burst, and a Flush with nothing buffered
// costs nothing.
func TestFrameWriterAppendThenFlush(t *testing.T) {
	c, log := &sinkConn{}, &flushLog{}
	w := NewFrameWriter(c, 4096, time.Second, log.observe)
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	if c.writes != 0 {
		t.Fatalf("Append wrote to the socket %d times with room to spare", c.writes)
	}
	for i := 0; i < 2; i++ {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if c.writes != 1 || c.deadlines != 1 || len(log.perFlush) != 1 || log.perFlush[0] != 3 {
		t.Fatalf("writes=%d deadlines=%d flushes=%v, want one write, one deadline, one flush of 3", c.writes, c.deadlines, log.perFlush)
	}
	// The next burst arms its own deadline.
	if err := w.Send([]byte("x"), false); err != nil {
		t.Fatal(err)
	}
	if c.writes != 2 || c.deadlines != 2 {
		t.Fatalf("next burst: writes=%d deadlines=%d, want 2 and 2", c.writes, c.deadlines)
	}
}

// TestFrameWriterBoundedBuffer: what Append holds back never exceeds the
// buffer — it writes to make room — and every one of those writes is a
// counted flush under a fresh deadline.
func TestFrameWriterBoundedBuffer(t *testing.T) {
	c, log := &sinkConn{}, &flushLog{}
	const size, frame, n = 256, 60, 50
	w := NewFrameWriter(c, size, time.Second, log.observe)
	for i := 0; i < n; i++ {
		if err := w.Append(make([]byte, frame)); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		held := (i+1)*(frame+4) - c.buf.Len()
		c.mu.Unlock()
		if held > size {
			t.Fatalf("after %d appends %d bytes are held back, buffer is %d", i+1, held, size)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.frames(t)); got != n || log.total() != n {
		t.Fatalf("%d frames on the socket, %d counted, want %d", got, log.total(), n)
	}
	if c.writes != len(log.perFlush) || c.deadlines != len(log.perFlush) {
		t.Fatalf("%d socket writes, %d deadlines, %d counted flushes: an uncounted write slipped through",
			c.writes, c.deadlines, len(log.perFlush))
	}
	// A frame larger than the whole buffer still goes out intact.
	big := bytes.Repeat([]byte{7}, 3*size)
	if err := w.Send(big, false); err != nil {
		t.Fatal(err)
	}
	if fs := c.frames(t); !bytes.Equal(fs[len(fs)-1], big) {
		t.Fatal("oversized frame arrived damaged")
	}
}

// TestFrameWriterErrorLatches: the first write error closes the
// connection once and is what every later call returns.
func TestFrameWriterErrorLatches(t *testing.T) {
	boom := errors.New("boom")
	c := &sinkConn{fail: boom}
	w := NewFrameWriter(c, 4096, time.Second, nil)
	if err := w.Send([]byte("a"), false); !errors.Is(err, boom) {
		t.Fatalf("Send = %v, want the write error", err)
	}
	c.mu.Lock()
	c.fail = nil // the socket "recovers"; the writer must not
	c.mu.Unlock()
	for _, err := range []error{w.Append([]byte("b")), w.Flush(), w.Send([]byte("c"), true)} {
		if !errors.Is(err, boom) {
			t.Fatalf("call after the failure = %v, want the latched error", err)
		}
	}
	if c.closes != 1 || c.writes != 0 {
		t.Fatalf("closes=%d writes=%d after a latched failure, want 1 and 0", c.closes, c.writes)
	}
}

func TestFrameBuffered(t *testing.T) {
	whole := frameStream(t, []byte("hello"), nil)
	for cut, want := range map[int]bool{0: false, 3: false, 4: false, 8: false, 9: true, len(whole): true} {
		br := bufio.NewReader(bytes.NewReader(whole[:cut]))
		br.Peek(1) // fill the buffer, as a preceding ReadFrame would have
		if got := FrameBuffered(br); got != want {
			t.Errorf("with %d of %d bytes buffered FrameBuffered = %v, want %v", cut, len(whole), got, want)
		}
	}
	br := bufio.NewReader(bytes.NewReader(whole))
	for i, want := range []bool{true, true, false} {
		br.Peek(1)
		if got := FrameBuffered(br); got != want {
			t.Fatalf("before frame %d FrameBuffered = %v, want %v", i, got, want)
		}
		if want {
			if _, err := ReadFrame(br, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}
