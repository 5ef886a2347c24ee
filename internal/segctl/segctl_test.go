package segctl

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/sched"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

func branching(t testing.TB) *schema.Partition {
	t.Helper()
	p, err := schema.NewPartition(
		[]string{"top", "mid", "leaf", "branch"},
		[]schema.ClassSpec{
			{Name: "c0", Writes: 0},
			{Name: "c1", Writes: 1, Reads: []schema.SegmentID{0}},
			{Name: "c2", Writes: 2, Reads: []schema.SegmentID{0, 1}},
			{Name: "c3", Writes: 3, Reads: []schema.SegmentID{0}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func gr(seg, key int) schema.GranuleID {
	return schema.GranuleID{Segment: schema.SegmentID(seg), Key: uint64(key)}
}

func newEngine(t testing.TB, rec cc.Recorder) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Partition: branching(t), Recorder: rec, WallInterval: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

func TestBasicFlow(t *testing.T) {
	e := newEngine(t, nil)
	if e.Name() != "HDD-msg" {
		t.Fatalf("Name = %q", e.Name())
	}
	w, _ := e.Begin(0)
	if err := w.Write(gr(0, 1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := w.Read(gr(0, 1)); err != nil || string(v) != "v" {
		t.Fatalf("read-own-write %q %v", v, err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Begin(2)
	if v, err := r.Read(gr(0, 1)); err != nil || string(v) != "v" {
		t.Fatalf("Protocol A read %q %v", v, err)
	}
	if err := r.Write(gr(2, 1), []byte("derived")); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	// Only the read-own-write registered nothing; the Protocol A read
	// must not have registered either.
	if got := e.Registrations(); got != 0 {
		t.Fatalf("registrations = %d, want 0", got)
	}
}

func TestProtocolBParkAndResume(t *testing.T) {
	e := newEngine(t, nil)
	w, _ := e.Begin(0)
	if err := w.Write(gr(0, 5), []byte("pending")); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Begin(0)
	got := make(chan string, 1)
	go func() {
		v, err := r.Read(gr(0, 5))
		if err != nil {
			got <- "ERR"
			return
		}
		got <- string(v)
	}()
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != "pending" {
		t.Fatalf("parked read = %q", v)
	}
	_ = r.Commit()
}

func TestProtocolBParkAbortResume(t *testing.T) {
	e := newEngine(t, nil)
	base, _ := e.Begin(0)
	_ = base.Write(gr(0, 6), []byte("base"))
	_ = base.Commit()
	w, _ := e.Begin(0)
	_ = w.Write(gr(0, 6), []byte("doomed"))
	r, _ := e.Begin(0)
	got := make(chan string, 1)
	go func() {
		v, _ := r.Read(gr(0, 6))
		got <- string(v)
	}()
	_ = w.Abort()
	if v := <-got; v != "base" {
		t.Fatalf("read after abort = %q, want base", v)
	}
	_ = r.Commit()
}

func TestWriteConflictRejected(t *testing.T) {
	e := newEngine(t, nil)
	old, _ := e.Begin(0)
	young, _ := e.Begin(0)
	if _, err := young.Read(gr(0, 7)); err != nil {
		t.Fatal(err)
	}
	err := old.Write(gr(0, 7), []byte("late"))
	if !cc.IsAbort(err) || cc.AbortReason(err) != cc.ReasonWriteRejected {
		t.Fatalf("err = %v", err)
	}
	_ = young.Commit()
}

func TestClassViolations(t *testing.T) {
	e := newEngine(t, nil)
	tx, _ := e.Begin(0)
	if _, err := tx.Read(gr(2, 1)); !cc.IsAbort(err) {
		t.Fatalf("read violation err = %v", err)
	}
	tx2, _ := e.Begin(1)
	if err := tx2.Write(gr(0, 1), nil); !cc.IsAbort(err) {
		t.Fatalf("write violation err = %v", err)
	}
	if _, err := e.Begin(99); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestReadOnlyWall(t *testing.T) {
	e := newEngine(t, nil)
	w, _ := e.Begin(0)
	_ = w.Write(gr(0, 1), []byte("v1"))
	_ = w.Commit()
	e.Walls().Force()
	ro, _ := e.BeginReadOnly()
	if v, err := ro.Read(gr(0, 1)); err != nil || string(v) != "v1" {
		t.Fatalf("wall read %q %v", v, err)
	}
	if err := ro.Write(gr(0, 1), nil); err == nil {
		t.Fatal("read-only write accepted")
	}
	_ = ro.Commit()
	if e.Registrations() != 0 {
		t.Fatal("read-only read registered")
	}
}

// TestReadOnlyUnknownSegment: a Protocol C read of a segment the partition
// does not have is an error, not a panic, and the transaction stays usable.
func TestReadOnlyUnknownSegment(t *testing.T) {
	e := newEngine(t, nil)
	ro, _ := e.BeginReadOnly()
	for _, seg := range []int{99, 4, -1} {
		if _, err := ro.Read(gr(seg, 1)); err == nil || cc.IsAbort(err) {
			t.Fatalf("read of segment %d = %v, want a non-abort error", seg, err)
		}
	}
	if _, err := ro.Read(gr(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSerializabilityUnderLoad: the message-passing engine passes the same
// property test as the shared-memory one.
func TestSerializabilityUnderLoad(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rec := sched.NewRecorder()
		e := newEngine(t, rec)
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed*100 + int64(c)))
				for i := 0; i < 50; i++ {
					runRandom(e, r)
				}
			}(c)
		}
		wg.Wait()
		g := rec.Build()
		if !g.Serializable() {
			t.Fatalf("seed %d not serializable:\n%s", seed, g.ExplainCycle())
		}
		if rec.NumCommitted() == 0 {
			t.Fatal("vacuous")
		}
	}
}

func runRandom(e *Engine, r *rand.Rand) {
	classes := []struct {
		class schema.ClassID
		above []int
	}{{0, nil}, {1, []int{0}}, {2, []int{0, 1}}, {3, []int{0}}}
	for attempt := 0; attempt < 50; attempt++ {
		if r.Intn(8) == 0 {
			ro, _ := e.BeginReadOnly()
			for i := 0; i < 3; i++ {
				if _, err := ro.Read(gr(r.Intn(4), r.Intn(12))); err != nil {
					panic(err)
				}
			}
			_ = ro.Commit()
			return
		}
		k := classes[r.Intn(len(classes))]
		tx, _ := e.Begin(k.class)
		err := func() error {
			for _, s := range k.above {
				if _, err := tx.Read(gr(s, r.Intn(12))); err != nil {
					return err
				}
			}
			g := gr(int(k.class), r.Intn(12))
			old, err := tx.Read(g)
			if err != nil {
				return err
			}
			if err := tx.Write(g, append(old, byte(r.Intn(256)))); err != nil {
				return err
			}
			return tx.Commit()
		}()
		if err == nil {
			return
		}
		_ = tx.Abort()
		if !cc.IsAbort(err) {
			panic(err)
		}
	}
}

// TestDifferentialWithCoreEngine drives the shared-memory and
// message-passing engines with the same single-threaded deterministic
// operation sequence and requires identical reads.
func TestDifferentialWithCoreEngine(t *testing.T) {
	part := branching(t)
	coreEng, err := core.NewEngine(core.Config{Partition: part, WallInterval: 16})
	if err != nil {
		t.Fatal(err)
	}
	msgEng, err := NewEngine(Config{Partition: part, WallInterval: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer msgEng.Close()

	engines := []cc.Engine{coreEng, msgEng}
	var reads [2][]string
	for ei, e := range engines {
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 400; i++ {
			k := r.Intn(4)
			tx, err := e.Begin(schema.ClassID(k))
			if err != nil {
				t.Fatal(err)
			}
			ok := true
			for _, s := range []int{0, 1, 2, 3}[:k+1] {
				if !part.MayRead(schema.ClassID(k), schema.SegmentID(s)) {
					continue
				}
				v, err := tx.Read(gr(s, r.Intn(8)))
				if err != nil {
					ok = false
					break
				}
				reads[ei] = append(reads[ei], fmt.Sprintf("%d:%x", i, v))
			}
			if !ok {
				_ = tx.Abort()
				continue
			}
			g := gr(k, r.Intn(8))
			old, err := tx.Read(g)
			if err != nil {
				_ = tx.Abort()
				continue
			}
			if err := tx.Write(g, append(old, byte(i))); err != nil {
				_ = tx.Abort()
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(reads[0]) != len(reads[1]) {
		t.Fatalf("read counts differ: %d vs %d", len(reads[0]), len(reads[1]))
	}
	for i := range reads[0] {
		if reads[0][i] != reads[1][i] {
			t.Fatalf("read %d differs: core %q vs msg %q", i, reads[0][i], reads[1][i])
		}
	}
}

func TestControllerGCAndStats(t *testing.T) {
	c := NewController(0)
	defer c.Stop()
	g := gr(0, 1)
	for i := 1; i <= 10; i++ {
		ts := vclock.Time(i * 2)
		if err := c.InstallChecked(g, ts, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		c.Commit([]schema.GranuleID{g}, ts)
	}
	n, _ := c.Stats()
	if n != 10 {
		t.Fatalf("versions = %d", n)
	}
	pruned := c.GC(15)
	if pruned == 0 {
		t.Fatal("nothing pruned")
	}
	if v, ts, ok := c.ReadBelow(g, 15); !ok || ts != 14 || v[0] != 7 {
		t.Fatalf("post-GC read = %v %d %v", v, ts, ok)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("missing partition accepted")
	}
}

// TestCloseIsIdempotent: a second Close returns, as HDD's does; it used
// to send to controllers whose loops had already returned, and wait for
// replies that never came.
func TestCloseIsIdempotent(t *testing.T) {
	e, err := NewEngine(Config{Partition: branching(t)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		e.Close()
		done <- e.Close()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a second Close did not return within 2 s")
	}
}
