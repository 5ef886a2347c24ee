package server_test

// Crash-recovery end-to-end test: a real hddserver process with
// -data-dir, a mixed workload over real TCP, SIGKILL mid-load, restart
// on the same data directory, and a full audit — every acknowledged
// commit must be present, no uncommitted write may survive, and commits
// in flight at the kill may land either way but never as a torn value —
// and the restarted server's boot line must report the WAL replay.
// This is the acceptance test for the durability layer (ISSUE 4).

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hdd"
	"hdd/client"
)

// buildServer compiles cmd/hddserver once into dir and returns the
// binary path.
func buildServer(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hddserver")
	cmd := exec.Command("go", "build", "-o", bin, "hdd/cmd/hddserver")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building hddserver: %v\n%s", err, out)
	}
	return bin
}

// bootLog collects a child's stderr while it is forwarded to ours; the
// exec package writes it from its own goroutine.
type bootLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *bootLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *bootLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startServerProc launches the server binary against dataDir and waits
// for its address file and its boot lines, which it returns.
func startServerProc(t *testing.T, bin, dataDir, addrFile string) (*exec.Cmd, string, string) {
	t.Helper()
	os.Remove(addrFile)
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-data-dir", dataDir,
		"-classes", "2",
		"-gc-every", "64",
		"-quiet",
	)
	var log bootLog
	cmd.Stderr = io.MultiWriter(os.Stderr, &log)
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting hddserver: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		// The listening line is printed after the recovery line and before
		// the address file is written, but the copy to log may trail both.
		boot := log.String()
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 && strings.Contains(boot, "listening on") {
			return cmd, string(b), boot
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("hddserver never wrote its address file")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkRecovered asserts a boot restored durable state: its recovery line
// reports WAL records replayed or, when snapshotOK, a snapshot loaded.
func checkRecovered(t *testing.T, boot string, snapshotOK bool) {
	t.Helper()
	var line string
	for _, l := range strings.Split(boot, "\n") {
		if strings.Contains(l, "hddserver: recovered") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no recovery line in the boot log:\n%s", boot)
	}
	var replayed int
	if i := strings.Index(line, "replayed "); i >= 0 {
		fmt.Sscanf(line[i:], "replayed %d records", &replayed)
	}
	if replayed == 0 && !(snapshotOK && strings.Contains(line, "snapshot=true")) {
		t.Fatalf("boot restored nothing: %s", line)
	}
}

func TestCrashRecoveryUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-level crash test in -short mode")
	}
	work := t.TempDir()
	dataDir := filepath.Join(work, "data")
	bin := buildServer(t, work)
	proc, addr, _ := startServerProc(t, bin, dataDir, filepath.Join(work, "addr"))

	const (
		writers      = 4
		acksPerGoal  = 25
		ghostSegment = 0
	)
	type ackedWrite struct {
		g   hdd.GranuleID
		val string
	}
	var (
		mu      sync.Mutex
		acked   []ackedWrite          // Commit returned nil before the kill
		unknown = map[uint64]string{} // commit outcome unobserved (killed mid-round-trip)
	)

	// The ghost session installs writes and deliberately never commits —
	// a deterministic uncommitted set that must not survive recovery.
	ghostKeys := []uint64{9_000_001, 9_000_002}
	ghostClient, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ghostClient.Close()
	ghostTxn, err := ghostClient.Begin(ghostSegment)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ghostKeys {
		if err := ghostTxn.Write(hdd.GranuleID{Segment: ghostSegment, Key: k}, []byte("ghost")); err != nil {
			t.Fatalf("ghost write: %v", err)
		}
	}

	// Mixed load: each writer commits single-write transactions in its
	// own keyspace (segment w%2, disjoint keys), with interleaved
	// read-only transactions, until the server dies under it.
	var wg sync.WaitGroup
	ready := make(chan struct{}, writers) // one signal per writer reaching the ack goal
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("writer %d dial: %v", w, err)
				return
			}
			defer c.Close()
			seg := hdd.SegmentID(w % 2)
			sentReady := false
			for seq := 0; ; seq++ {
				key := uint64(w)*1_000_000 + uint64(seq)
				val := fmt.Sprintf("w%d-%d", w, seq)
				txn, err := c.Begin(hdd.ClassID(seg))
				if err != nil {
					return // server killed
				}
				g := hdd.GranuleID{Segment: seg, Key: key}
				if err := txn.Write(g, []byte(val)); err != nil {
					return
				}
				if err := txn.Commit(); err != nil {
					// The kill can land mid-commit: the marker may or may
					// not have been flushed. Either outcome is legal; record
					// it so the audit checks value integrity if it survived.
					mu.Lock()
					unknown[key] = val
					mu.Unlock()
					return
				}
				mu.Lock()
				acked = append(acked, ackedWrite{g, val})
				n := len(acked)
				mu.Unlock()
				if !sentReady && n >= acksPerGoal*writers/2 {
					sentReady = true
					select {
					case ready <- struct{}{}:
					default:
					}
				}
				if seq%7 == 0 {
					if ro, err := c.BeginReadOnly(); err == nil {
						ro.Read(g)
						ro.Abort()
					}
				}
			}
		}(w)
	}

	// Wait until the workload is well underway, then SIGKILL — no drain,
	// no flush, the hardest stop the OS offers.
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("workload never reached the ack goal")
	}
	// The writers' begins, writes and commits run on the session
	// goroutine, so recovery is checked on that path: the read-only
	// transactions alone (3 inline requests per 7 commits per writer)
	// cannot account for more inline requests than acknowledged commits.
	mu.Lock()
	ackedBefore := len(acked)
	mu.Unlock()
	// t.Errorf, not Fatalf: the server process must still be killed below.
	if st, err := ghostClient.Stats(); err != nil {
		t.Errorf("stats before the kill: %v", err)
	} else if st["inline_requests"] <= int64(ackedBefore) {
		t.Errorf("inline_requests = %d after %d acknowledged commits: update transactions did not run inline",
			st["inline_requests"], ackedBefore)
	}
	if err := proc.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	proc.Wait()
	wg.Wait()

	mu.Lock()
	t.Logf("at kill: %d acked commits, %d unknown-outcome commits", len(acked), len(unknown))
	if len(acked) == 0 {
		mu.Unlock()
		t.Fatal("no commits acknowledged before the kill; test proves nothing")
	}
	mu.Unlock()

	// Restart on the same data directory and audit.
	proc2, addr2, boot := startServerProc(t, bin, dataDir, filepath.Join(work, "addr2"))
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()
	checkRecovered(t, boot, false)
	c, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// readBack reads g through an update transaction of the granule's own
	// class — a Protocol B own-root read, which sees the latest committed
	// version without waiting for wall release.
	readBack := func(g hdd.GranuleID) (string, bool) {
		txn, err := c.Begin(hdd.ClassID(g.Segment))
		if err != nil {
			t.Fatalf("audit begin: %v", err)
		}
		defer txn.Abort()
		v, err := txn.Read(g)
		if err != nil {
			t.Fatalf("audit read %v: %v", g, err)
		}
		return string(v), v != nil
	}

	lost := 0
	for _, a := range acked {
		v, ok := readBack(a.g)
		if !ok || v != a.val {
			lost++
			if lost <= 5 {
				t.Errorf("acknowledged commit lost: %v = %q, recovered (%q, %v)", a.g, a.val, v, ok)
			}
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d acknowledged commits lost", lost, len(acked))
	}
	for _, k := range ghostKeys {
		g := hdd.GranuleID{Segment: ghostSegment, Key: k}
		if v, ok := readBack(g); ok {
			t.Errorf("uncommitted write survived recovery: %v = %q", g, v)
		}
	}
	for key, val := range unknown {
		g := hdd.GranuleID{Segment: hdd.SegmentID(0), Key: key}
		// Writers put key w*1e6+seq in segment w%2; recover the segment.
		g.Segment = hdd.SegmentID(int(key/1_000_000) % 2)
		if v, ok := readBack(g); ok && v != val {
			t.Errorf("in-flight commit recovered with torn value: %v = %q, want %q or absent", g, v, val)
		}
	}

	// The recovered server keeps working: fresh commits land normally.
	txn, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(hdd.GranuleID{Segment: 0, Key: 42_000_000}, []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
	if v, ok := readBack(hdd.GranuleID{Segment: 0, Key: 42_000_000}); !ok || v != "post-recovery" {
		t.Fatalf("post-recovery write not visible: (%q, %v)", v, ok)
	}
}

// TestRestartAfterGracefulShutdown checks the clean path: SIGTERM drains,
// snapshots, and the next boot recovers from the snapshot with an empty
// log.
func TestRestartAfterGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-level restart test in -short mode")
	}
	work := t.TempDir()
	dataDir := filepath.Join(work, "data")
	bin := buildServer(t, work)
	proc, addr, _ := startServerProc(t, bin, dataDir, filepath.Join(work, "addr"))

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		txn, err := c.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Write(hdd.GranuleID{Segment: 0, Key: uint64(i)}, []byte("clean")); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["wal_records"] == 0 {
		t.Error("wal_records stat is 0 under -data-dir; WAL counters not exposed")
	}
	c.Close()

	if err := proc.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := proc.Wait(); err != nil {
		t.Fatalf("server exited uncleanly on SIGINT: %v", err)
	}
	// Graceful shutdown snapshots and truncates the log.
	if fi, err := os.Stat(filepath.Join(dataDir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Errorf("wal.log after graceful shutdown: err=%v size=%v, want empty", err, fi)
	}

	proc2, addr2, boot := startServerProc(t, bin, dataDir, filepath.Join(work, "addr2"))
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()
	checkRecovered(t, boot, true)
	c2, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2["wal_replayed_records"] != 0 {
		t.Errorf("replayed %d records after a clean shutdown, want 0 (snapshot covers all)", st2["wal_replayed_records"])
	}
	txn, err := c2.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	for i := 0; i < 10; i++ {
		v, err := txn.Read(hdd.GranuleID{Segment: 0, Key: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != "clean" {
			t.Fatalf("key %d: got %q, want \"clean\" from snapshot", i, v)
		}
	}
}
