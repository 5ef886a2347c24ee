package core

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"hdd/internal/schema"
	"hdd/internal/vfs"
)

// Crash-point lattice torture harness (DESIGN.md §11).
//
// A probe run executes a fixed workload — commits across several
// granules, deliberate aborts, an explicit snapshot, GC passes — over
// the fault injector with no faults armed, and counts the
// state-changing filesystem operations M it performs. The lattice is then
// the M ways the process can die: for crash point n, the same workload
// runs against an injector armed to tear operation n (writes keep a torn
// prefix) and latch the filesystem dead, exactly as a power cut after
// that syscall. The harness reboots each wreck on the real filesystem and
// checks the PR 4 invariants:
//
//	I1 no acknowledged commit is lost: the recovered value of every
//	   granule is at least as new as its last acked write;
//	I2 nothing uncommitted resurrects: every recovered value is one a
//	   committed attempt actually wrote — never an aborted value;
//	I3 the clock restarts above everything recovered.
//
// By default a bounded random sample of crash points runs (fast enough
// for `go test ./...` and the -race CI smoke). HDD_TORTURE=full runs the
// whole lattice (`make torture`); HDD_TORTURE_SEED pins the sample.

// tortureGranules is the number of distinct granules the workload cycles
// through; keep it small so crash points land on re-writes too.
const tortureGranules = 3

// tortureResult records what one workload run observed: the last
// acknowledged sequence per granule and every value a commit *attempt*
// wrote (keyed "seg/key/seq"). Aborted sequences are never in attempted.
type tortureResult struct {
	acked     map[schema.GranuleID]int
	attempted map[schema.GranuleID]map[int]bool
}

// tortureWorkload drives one engine through the fixed schedule. Every
// error is tolerated — after the armed crash point fires, anything from a
// failed commit to a rejected begin is expected — but what was acked
// before the crash is recorded exactly.
func tortureWorkload(t *testing.T, e *Engine) tortureResult {
	t.Helper()
	res := tortureResult{
		acked:     make(map[schema.GranuleID]int),
		attempted: make(map[schema.GranuleID]map[int]bool),
	}
	for seq := 1; seq <= 14; seq++ {
		g := gr(0, seq%tortureGranules)
		txn, err := e.Begin(0)
		if err != nil {
			break // crashed or degraded: admission is closed for good
		}
		if seq%5 == 0 {
			// A deliberate abort: its value must never be seen again.
			txn.Write(g, []byte(fmt.Sprintf("x%03d", seq)))
			txn.Abort()
			continue
		}
		if err := txn.Write(g, []byte(fmt.Sprintf("c%03d", seq))); err != nil {
			txn.Abort()
			continue
		}
		if res.attempted[g] == nil {
			res.attempted[g] = make(map[int]bool)
		}
		res.attempted[g][seq] = true
		if err := txn.Commit(); err == nil && seq > res.acked[g] {
			res.acked[g] = seq
		}
		if seq == 8 {
			// Mid-run snapshot: create, checkpoint write, fsync, rename,
			// dir sync, and log reset all become lattice points.
			e.Snapshot()
		}
	}
	return res
}

func tortureEngine(part *schema.Partition, dir string, fs vfs.FS) (*Engine, error) {
	return NewEngine(Config{
		Partition:      part,
		WallInterval:   8,
		GCEveryCommits: 3, // GC runs mid-workload
		DataDir:        dir,
		SnapshotBytes:  -1, // snapshots only where the workload asks
		FS:             fs,
	})
}

// verifyReboot reopens dir on the real filesystem and checks I1–I3
// against what the crashed run recorded.
func verifyReboot(t *testing.T, part *schema.Partition, dir string, res tortureResult, label string) {
	t.Helper()
	e2, err := NewEngine(Config{
		Partition:     part,
		WallInterval:  8,
		DataDir:       dir,
		SnapshotBytes: -1,
	})
	if err != nil {
		t.Fatalf("%s: reboot failed: %v", label, err)
	}
	defer e2.Close()
	// I3: the clock restarted above the recovered high-water mark.
	if now, hw := e2.Clock().Now(), e2.dur.rec.HighWater; now < hw {
		t.Fatalf("%s: clock %d below recovered high water %d", label, now, hw)
	}
	for k := 0; k < tortureGranules; k++ {
		g := gr(0, k)
		v, found := readLatest(t, e2, 0, g)
		ackedSeq := res.acked[g]
		if ackedSeq > 0 && !found {
			t.Fatalf("%s: %v: acked seq %d but nothing recovered", label, g, ackedSeq)
		}
		if !found {
			continue
		}
		// I2: only values committed attempts wrote may appear.
		if len(v) != 4 || v[0] != 'c' {
			t.Fatalf("%s: %v: recovered %q is not a committed-format value (aborted data resurrected?)", label, g, v)
		}
		seq, err := strconv.Atoi(v[1:])
		if err != nil || !res.attempted[g][seq] {
			t.Fatalf("%s: %v: recovered %q was never written by a commit attempt", label, g, v)
		}
		// I1: at least as new as the last acked write.
		if seq < ackedSeq {
			t.Fatalf("%s: %v: recovered seq %d older than acked seq %d — acked commit lost", label, g, seq, ackedSeq)
		}
	}
}

// crashPoints picks which lattice points to run: all of them under
// HDD_TORTURE=full, otherwise a seeded random sample plus the structural
// edges (first op, last op, and the middle).
func crashPoints(t *testing.T, m int64) []int64 {
	if os.Getenv("HDD_TORTURE") == "full" {
		out := make([]int64, m)
		for i := range out {
			out[i] = int64(i + 1)
		}
		return out
	}
	seed := int64(1)
	if s := os.Getenv("HDD_TORTURE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("HDD_TORTURE_SEED %q: %v", s, err)
		}
		seed = v
	}
	rng := rand.New(rand.NewSource(seed))
	picked := map[int64]bool{1: true, m / 2: true, m: true}
	for len(picked) < 12 && int64(len(picked)) < m {
		picked[1+rng.Int63n(m)] = true
	}
	out := make([]int64, 0, len(picked))
	for n := range picked {
		if n >= 1 && n <= m {
			out = append(out, n)
		}
	}
	return out
}

func TestCrashPointLattice(t *testing.T) {
	part := twoLevel(t)

	// Probe run: count the lattice.
	probeFS := vfs.NewFaulty(nil)
	probeDir := t.TempDir()
	e, err := tortureEngine(part, probeDir, probeFS)
	if err != nil {
		t.Fatal(err)
	}
	probe := tortureWorkload(t, e)
	e.Close()
	m := probeFS.Ops()
	if m < 20 {
		t.Fatalf("probe run performed only %d filesystem ops; workload too small to torture", m)
	}
	verifyReboot(t, part, probeDir, probe, "probe")
	t.Logf("crash-point lattice: %d operations", m)

	for _, n := range crashPoints(t, m) {
		n := n
		t.Run(fmt.Sprintf("crash-at-op-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			fs := vfs.NewFaulty(nil)
			fs.CrashAtOp(n)
			eng, err := tortureEngine(part, dir, fs)
			var res tortureResult
			if err == nil {
				res = tortureWorkload(t, eng)
				eng.Close()
			} else {
				// Crash during boot: nothing was acked, reboot must still
				// come up clean.
				res = tortureResult{
					acked:     make(map[schema.GranuleID]int),
					attempted: make(map[schema.GranuleID]map[int]bool),
				}
			}
			verifyReboot(t, part, dir, res, fmt.Sprintf("crash at op %d", n))
		})
	}
}

// TestFaultPointLattice sweeps non-crash storage errors — the disk stays
// alive but an operation fails — across the operation kinds the
// durability layer performs, checking that the engine either degrades
// fail-stop or carries on, and that a reboot upholds I1–I3 either way.
func TestFaultPointLattice(t *testing.T) {
	part := twoLevel(t)
	kinds := []struct {
		name string
		op   vfs.Op
	}{
		{"write", vfs.OpWrite},
		{"sync", vfs.OpSync},
		{"truncate", vfs.OpTruncate},
		{"rename", vfs.OpRename},
		{"syncdir", vfs.OpSyncDir},
	}
	for _, k := range kinds {
		for nth := int64(1); nth <= 3; nth++ {
			k, nth := k, nth
			t.Run(fmt.Sprintf("%s-%d", k.name, nth), func(t *testing.T) {
				dir := t.TempDir()
				fs := vfs.NewFaulty(nil)
				fs.Inject(vfs.Fault{Op: k.op, Nth: nth})
				eng, err := tortureEngine(part, dir, fs)
				var res tortureResult
				if err == nil {
					res = tortureWorkload(t, eng)
					// A degraded engine must say so; a healthy one must not.
					if degraded, derr := eng.Degraded(); degraded && derr == nil {
						t.Fatal("degraded with a nil cause")
					}
					eng.Close()
				} else {
					res = tortureResult{
						acked:     make(map[schema.GranuleID]int),
						attempted: make(map[schema.GranuleID]map[int]bool),
					}
				}
				verifyReboot(t, part, dir, res, fmt.Sprintf("fault %s #%d", k.name, nth))
			})
		}
	}
}
