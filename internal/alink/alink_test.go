package alink

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hdd/internal/activity"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// chainPartition builds a k-class chain: class i reads every segment above
// it, so the THG reduces to k-1 → … → 1 → 0.
func chainPartition(t testing.TB, k int) *schema.Partition {
	t.Helper()
	names := make([]string, k)
	classes := make([]schema.ClassSpec, k)
	for i := 0; i < k; i++ {
		names[i] = fmt.Sprintf("seg%d", i)
		var reads []schema.SegmentID
		for j := 0; j < i; j++ {
			reads = append(reads, schema.SegmentID(j))
		}
		classes[i] = schema.ClassSpec{Name: fmt.Sprintf("c%d", i), Writes: schema.SegmentID(i), Reads: reads}
	}
	p, err := schema.NewPartition(names, classes)
	if err != nil {
		t.Fatalf("chainPartition(%d): %v", k, err)
	}
	return p
}

// veePartition builds classes 1 and 2 both reading segment 0.
func veePartition(t testing.TB) *schema.Partition {
	t.Helper()
	p, err := schema.NewPartition(
		[]string{"top", "left", "right"},
		[]schema.ClassSpec{
			{Name: "c0", Writes: 0},
			{Name: "c1", Writes: 1, Reads: []schema.SegmentID{0}},
			{Name: "c2", Writes: 2, Reads: []schema.SegmentID{0}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scriptedHistory drives a random begin/commit history over the classes
// and returns the links plus the final clock value. All transactions are
// resolved at the end so every C_late is computable.
func scriptedHistory(t testing.TB, part *schema.Partition, seed int64, steps int) (*Links, vclock.Time) {
	t.Helper()
	act := activity.NewSet(part.NumClasses())
	links := New(part, act)
	r := rand.New(rand.NewSource(seed))
	clock := vclock.NewClock()
	type live struct {
		class int
		init  vclock.Time
	}
	var actives []live
	for i := 0; i < steps; i++ {
		if len(actives) > 0 && r.Intn(100) < 45 {
			k := r.Intn(len(actives))
			a := actives[k]
			act.Class(a.class).Commit(a.init, clock.Tick())
			actives = append(actives[:k], actives[k+1:]...)
		} else {
			c := r.Intn(part.NumClasses())
			init := clock.Tick()
			act.Class(c).Begin(init)
			actives = append(actives, live{class: c, init: init})
		}
	}
	for _, a := range actives {
		act.Class(a.class).Commit(a.init, clock.Tick())
	}
	return links, clock.Now()
}

// TestFigure6Trace reproduces the paper's Figure 6 example: a critical
// path T_i → T_k → T_j with A_i^j(m) = I_old_j(I_old_k(m)).
func TestFigure6Trace(t *testing.T) {
	part := chainPartition(t, 3) // path 2 → 1 → 0
	act := activity.NewSet(3)
	links := New(part, act)

	// Script (times are explicit):
	//   class 1: t_k initiated at 10, commits at 50.
	//   class 0: t_j initiated at 5, commits at 60.
	act.Class(1).Begin(10)
	act.Class(0).Begin(5)
	act.Class(1).Commit(10, 50)
	act.Class(0).Commit(5, 60)

	// A_2^1(m=30): oldest class-1 txn active at 30 initiated at 10.
	if got := links.A(2, 1, 30); got != 10 {
		t.Fatalf("A_2^1(30) = %d, want 10", got)
	}
	// A_2^0(30) = I_old_0(I_old_1(30)) = I_old_0(10) = 5.
	if got := links.A(2, 0, 30); got != 5 {
		t.Fatalf("A_2^0(30) = %d, want 5", got)
	}
	// With nothing active at m, A degenerates to m.
	if got := links.A(2, 0, 70); got != 70 {
		t.Fatalf("A_2^0(70) = %d, want 70 (quiescent)", got)
	}
}

func TestAPanicsOffPath(t *testing.T) {
	part := veePartition(t)
	links := New(part, activity.NewSet(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for A between off-path classes")
		}
	}()
	links.A(1, 2, 10)
}

// TestProperty21And22 checks the paper's Property 2.1 (A(B(m)) ≥ m) and
// 2.2 (A(B(m)-ε) < m) on random histories over chains of varying depth.
func TestProperty21And22(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5} {
		part := chainPartition(t, k)
		for seed := int64(0); seed < 20; seed++ {
			links, now := scriptedHistory(t, part, seed, 120)
			low, high := schema.ClassID(k-1), schema.ClassID(0)
			for m := vclock.Time(1); m <= now; m += 3 {
				b, ok := links.TryB(low, high, m)
				if !ok {
					t.Fatalf("k=%d seed=%d: B not computable after quiescence", k, seed)
				}
				if got := links.A(low, high, b); got < m {
					t.Fatalf("k=%d seed=%d m=%d: A(B(m))=%d < m (B(m)=%d)", k, seed, m, got, b)
				}
				if got := links.A(low, high, b-1); got >= m {
					t.Fatalf("k=%d seed=%d m=%d: A(B(m)-1)=%d ≥ m (B(m)=%d)", k, seed, m, got, b)
				}
			}
		}
	}
}

// TestEDegeneratesToAandB: along an all-upward UCP, E equals A; along an
// all-downward one, E equals the B chain.
func TestEDegeneratesToAandB(t *testing.T) {
	part := chainPartition(t, 4)
	for seed := int64(0); seed < 10; seed++ {
		links, now := scriptedHistory(t, part, seed, 100)
		for m := vclock.Time(1); m <= now; m += 5 {
			if a, e := links.A(3, 0, m), links.E(3, 0, m); a != e {
				t.Fatalf("seed=%d m=%d: E up-path %d != A %d", seed, m, e, a)
			}
			b, ok := links.TryB(3, 0, m)
			if !ok {
				t.Fatal("B not computable after quiescence")
			}
			if e := links.E(0, 3, m); e != b {
				t.Fatalf("seed=%d m=%d: E down-path %d != B %d", seed, m, e, b)
			}
		}
	}
}

func TestEIdentity(t *testing.T) {
	part := veePartition(t)
	links := New(part, activity.NewSet(3))
	if got := links.E(1, 1, 42); got != 42 {
		t.Fatalf("E_1^1(42) = %d, want 42", got)
	}
}

// TestEMixedPath exercises E across the vee (down from class 1's wall to
// the top, then up to class 2) with a scripted history.
func TestEMixedPath(t *testing.T) {
	part := veePartition(t)
	act := activity.NewSet(3)
	links := New(part, act)
	// Class 1 (left leaf): txn at 10 commits 40.
	// Class 0 (top): txn at 20 commits 30.
	// Class 2 (right leaf): txn at 25 commits 35.
	act.Class(1).Begin(10)
	act.Class(0).Begin(20)
	act.Class(2).Begin(25)
	act.Class(0).Commit(20, 30)
	act.Class(2).Commit(25, 35)
	act.Class(1).Commit(10, 40)

	// E_1^2(m=15): UCP [1,0,2]. Step 1→0 is upward (arc 1→0):
	// I_old_0(15) = 15 (class-0 txn initiated at 20, not active at 15).
	// Step 0→2 is downward (arc 2→0): C_late_0(15) = 15 (none active).
	// Wait: the downward step applies C_late of the *current* node 0.
	// So E = C_late_0(I_old_0(15))? No: the per-step rule applies
	// I_old_0 for arriving at 0, then C_late_0 for leaving 0 downward:
	// I_old_0(15)=15, then C_late_0(15)=15.
	if got := links.E(1, 2, 15); got != 15 {
		t.Fatalf("E_1^2(15) = %d, want 15", got)
	}
	// E_1^2(m=25): I_old_0(25) = 20 (txn 20 active), then C_late_0(20) =
	// 20 (no class-0 txn initiated before 20 was active at 20).
	if got := links.E(1, 2, 25); got != 20 {
		t.Fatalf("E_1^2(25) = %d, want 20", got)
	}
	// E_1^2(m=35): I_old_0(35) = 35 (txn 20 committed at 30), then
	// C_late_0(35) = 35.
	if got := links.E(1, 2, 35); got != 35 {
		t.Fatalf("E_1^2(35) = %d, want 35", got)
	}
}

// deepPartition builds the smallest shape where E can genuinely be
// non-computable: a chain 2→1→0 plus a branch 3→0. The UCP from 3 to 2 is
// [3,0,1,2] with two consecutive downward steps, so C_late_1 is evaluated
// at a value that was not first filtered through I_old_1.
func deepPartition(t testing.TB) *schema.Partition {
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

func TestTryEVeeAlwaysComputable(t *testing.T) {
	// On a vee, the down-step's argument has already been filtered
	// through I_old of the same class, so C_late is computable even with
	// a top-class transaction active — an I_old step walls it off.
	part := veePartition(t)
	act := activity.NewSet(3)
	links := New(part, act)
	act.Class(0).Begin(10)
	v, ok := links.TryE(1, 2, 20)
	if !ok {
		t.Fatal("E_1^2(20) should be computable: I_old_0(20)=10 walls off the active txn")
	}
	if v != 10 {
		t.Fatalf("E_1^2(20) = %d, want 10", v)
	}
}

func TestTryENotComputable(t *testing.T) {
	part := deepPartition(t)
	act := activity.NewSet(4)
	links := New(part, act)
	// Class 1 has an active transaction initiated at 10.
	act.Class(1).Begin(10)
	// E_3^2(20): I_old_0(20)=20, C_late_0(20)=20, then C_late_1(20) — a
	// class-1 txn with init 10 < 20 is active → not computable.
	if _, ok := links.TryE(3, 2, 20); ok {
		t.Fatal("TryE should report not-computable with mid-class txn active")
	}
	act.Class(1).Commit(10, 30)
	v, ok := links.TryE(3, 2, 20)
	if !ok {
		t.Fatal("TryE should be computable after commit")
	}
	// C_late_1(20) = 30 (txn 10..30 was active at 20).
	if v != 30 {
		t.Fatalf("E_3^2(20) = %d, want 30", v)
	}
}

// TestTopoFollowsDefinition checks the three cases of ⇒ (§4.3).
func TestTopoFollowsDefinition(t *testing.T) {
	part := chainPartition(t, 2) // class 1 low, class 0 high
	act := activity.NewSet(2)
	links := New(part, act)
	// Class 0: txn A at 10..50. Class 1: txn B at 30..60.
	act.Class(0).Begin(10)
	act.Class(1).Begin(30)
	act.Class(0).Commit(10, 50)
	act.Class(1).Commit(30, 60)

	// Case 1, same class: later initiation follows earlier.
	if !links.TopoFollows(0, 10, 0, 5) {
		t.Fatal("case 1 failed: 10 should follow 5")
	}
	if links.TopoFollows(0, 5, 0, 10) {
		t.Fatal("case 1 anti-symmetry failed")
	}
	// Case 3: t1 in lower class 1 at init 30; t2 in higher class 0 at
	// init 10. A_1^0(I(t1)) = I_old_0(30) = 10; need I(t2) < 10 → false
	// for t2=10.
	if links.TopoFollows(1, 30, 0, 10) {
		t.Fatal("case 3: t1(30,low) should NOT follow t2(10,high): t2 was active at 30")
	}
	// But a higher-class txn initiated at 5 (before the threshold) is
	// followed.
	if !links.TopoFollows(1, 30, 0, 5) {
		t.Fatal("case 3: t1(30,low) should follow t2(5,high)")
	}
	// Case 2: t1 in higher class 0, t2 in lower class 1 at 30:
	// A_1^0(I(t2)) = I_old_0(30) = 10; t1 follows iff I(t1) ≥ 10.
	if !links.TopoFollows(0, 10, 1, 30) {
		t.Fatal("case 2: t1(10,high) should follow t2(30,low)")
	}
	if links.TopoFollows(0, 9, 1, 30) {
		t.Fatal("case 2: t1(9,high) should not follow t2(30,low)")
	}
}

func TestTopoFollowsPanicsOffPath(t *testing.T) {
	part := veePartition(t)
	links := New(part, activity.NewSet(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	links.TopoFollows(1, 10, 2, 20)
}

// TestTopoFollowsTransitivity is the paper's Property 1.2: ⇒ is
// critical-path transitive. Random histories, random triples on the chain.
func TestTopoFollowsTransitivity(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		part := chainPartition(t, k)
		for seed := int64(0); seed < 15; seed++ {
			act := activity.NewSet(k)
			links := New(part, act)
			r := rand.New(rand.NewSource(seed * 31))
			clock := vclock.NewClock()
			type txn struct {
				class int
				init  vclock.Time
			}
			var all []txn
			var actives []txn
			for i := 0; i < 80; i++ {
				if len(actives) > 0 && r.Intn(100) < 45 {
					idx := r.Intn(len(actives))
					a := actives[idx]
					act.Class(a.class).Commit(a.init, clock.Tick())
					actives = append(actives[:idx], actives[idx+1:]...)
				} else {
					c := r.Intn(k)
					init := clock.Tick()
					act.Class(c).Begin(init)
					tx := txn{class: c, init: init}
					actives = append(actives, tx)
					all = append(all, tx)
				}
			}
			for _, a := range actives {
				act.Class(a.class).Commit(a.init, clock.Tick())
			}
			// Exhaustive triples would be 80^3; sample instead.
			for trial := 0; trial < 4000; trial++ {
				t1 := all[r.Intn(len(all))]
				t2 := all[r.Intn(len(all))]
				t3 := all[r.Intn(len(all))]
				if t1.init == t2.init || t2.init == t3.init || t1.init == t3.init {
					continue
				}
				f12 := links.TopoFollows(schema.ClassID(t1.class), t1.init, schema.ClassID(t2.class), t2.init)
				f23 := links.TopoFollows(schema.ClassID(t2.class), t2.init, schema.ClassID(t3.class), t3.init)
				if f12 && f23 {
					if !links.TopoFollows(schema.ClassID(t1.class), t1.init, schema.ClassID(t3.class), t3.init) {
						t.Fatalf("k=%d seed=%d: transitivity violated: t1=%+v t2=%+v t3=%+v", k, seed, t1, t2, t3)
					}
				}
				// Anti-symmetry (Property 1.1).
				f21 := links.TopoFollows(schema.ClassID(t2.class), t2.init, schema.ClassID(t1.class), t1.init)
				if f12 && f21 {
					t.Fatalf("k=%d seed=%d: anti-symmetry violated: t1=%+v t2=%+v", k, seed, t1, t2)
				}
			}
		}
	}
}

func TestComputeWallQuiescent(t *testing.T) {
	part := veePartition(t)
	act := activity.NewSet(3)
	links := New(part, act)
	low := part.LowestClasses()
	w, ok := links.ComputeWall(low[0], 100)
	if !ok {
		t.Fatal("wall not computable on quiescent system")
	}
	for i, c := range w.Component {
		if c != 100 {
			t.Fatalf("component[%d] = %d, want 100 on quiescent system", i, c)
		}
	}
	if w.Threshold(schema.SegmentID(2)) != 100 {
		t.Fatal("Threshold accessor broken")
	}
}

func TestComputeWallBlockedByActive(t *testing.T) {
	part := deepPartition(t)
	act := activity.NewSet(4)
	links := New(part, act)
	act.Class(1).Begin(10)
	// Wall from the branch leaf (class 3) at m=20: the class-2 component
	// needs C_late_1(20), blocked by the active class-1 transaction.
	if _, ok := links.ComputeWall(3, 20); ok {
		t.Fatal("wall should not be computable with mid-class txn active")
	}
	act.Class(1).Commit(10, 30)
	w, ok := links.ComputeWall(3, 20)
	if !ok {
		t.Fatal("wall should be computable after commit")
	}
	if w.Component[2] != 30 {
		t.Fatalf("class-2 component = %d, want 30", w.Component[2])
	}
}

// TestWallAdmitsOnlyResolved: the strengthened release rule — every class's
// component only admits resolved transactions at release time.
func TestWallAdmitsOnlyResolved(t *testing.T) {
	part := veePartition(t)
	act := activity.NewSet(3)
	links := New(part, act)
	// Class 2 has an active txn at 40. Wall from class 1 at m=60:
	// component for class 2 is C_late_0(I_old_0(60)) = 60 ≥ 41 > 40,
	// admitting the unresolved class-2 txn → must not release.
	act.Class(2).Begin(40)
	if _, ok := links.ComputeWall(1, 60); ok {
		t.Fatal("wall admitting an unresolved transaction must not release")
	}
	act.Class(2).Commit(40, 65)
	if _, ok := links.ComputeWall(1, 60); !ok {
		t.Fatal("wall should release after the admitted txn resolves")
	}
}

func TestAFrom(t *testing.T) {
	part := chainPartition(t, 3)
	act := activity.NewSet(3)
	links := New(part, act)
	act.Class(2).Begin(10) // base class activity matters for AFrom
	act.Class(0).Begin(12)
	act.Class(2).Commit(10, 40)
	act.Class(0).Commit(12, 50)
	// AFrom(base=2, j=2, m=30) = I_old_2(30) = 10.
	if got := links.AFrom(2, 2, 30); got != 10 {
		t.Fatalf("AFrom(2,2,30) = %d, want 10", got)
	}
	// AFrom(base=2, j=0, 30) = I_old_0(I_old_1(I_old_2(30))) =
	// I_old_0(I_old_1(10)) = I_old_0(10) = 10 (class-0 txn initiated 12,
	// not active at 10).
	if got := links.AFrom(2, 0, 30); got != 10 {
		t.Fatalf("AFrom(2,0,30) = %d, want 10", got)
	}
}

func TestWallManagerLifecycle(t *testing.T) {
	part := veePartition(t)
	act := activity.NewSet(3)
	links := New(part, act)
	clock := vclock.NewClock()
	mgr := NewWallManager(links, clock, 10, 1)
	w0 := mgr.Current()
	if w0 == nil {
		t.Fatal("initial wall missing")
	}
	// Within the interval, Poll does not schedule a new wall.
	if mgr.Poll() {
		t.Fatal("Poll released a wall before the interval elapsed")
	}
	// Advance past the interval; next Poll schedules and (quiescent)
	// releases.
	for i := 0; i < 12; i++ {
		clock.Tick()
	}
	if !mgr.Poll() {
		t.Fatal("Poll should release after the interval")
	}
	w1 := mgr.Current()
	if w1 == w0 || w1.At <= w0.At {
		t.Fatalf("new wall not newer: %v then %v", w0.At, w1.At)
	}
	released, attempts := mgr.Stats()
	if released < 2 || attempts < released {
		t.Fatalf("stats: released=%d attempts=%d", released, attempts)
	}
}

func TestWallManagerBlocksOnActive(t *testing.T) {
	part := deepPartition(t)
	act := activity.NewSet(4)
	links := New(part, act)
	clock := vclock.NewClock()
	mgr := NewWallManager(links, clock, 5, 3)

	init := clock.Tick()
	act.Class(1).Begin(init)
	for i := 0; i < 10; i++ {
		clock.Tick()
	}
	if mgr.Poll() {
		t.Fatal("wall released despite active mid-class txn")
	}
	act.Class(1).Commit(init, clock.Tick())
	if !mgr.Poll() {
		t.Fatal("wall should release after commit")
	}
	if f := mgr.SafeFloor(); f > mgr.Current().At {
		// SafeFloor covers at least the current wall's smallest
		// component, which is ≤ its At.
		t.Fatalf("SafeFloor %d beyond wall At %d", f, mgr.Current().At)
	}
}

func TestWallManagerForce(t *testing.T) {
	part := veePartition(t)
	act := activity.NewSet(3)
	links := New(part, act)
	clock := vclock.NewClock()
	mgr := NewWallManager(links, clock, 1000, 1)
	before := mgr.Current().At
	w := mgr.Force()
	if w.At <= before {
		t.Fatalf("Force did not advance the wall: %d then %d", before, w.At)
	}
}

// TestWallManagerIdlePollTakesNoLock: with no wall pending and the
// interval not elapsed, Poll has nothing to do and must return without
// the manager's mutex, which every completion would otherwise take. A
// pending wall still takes the slow path.
func TestWallManagerIdlePollTakesNoLock(t *testing.T) {
	part := deepPartition(t)
	act := activity.NewSet(4)
	links := New(part, act)
	clock := vclock.NewClock()
	mgr := NewWallManager(links, clock, 10, 3)
	polled := make(chan bool)
	mgr.mu.Lock()
	go func() { polled <- mgr.Poll() }()
	select {
	case released := <-polled:
		if released {
			t.Fatal("an idle Poll released a wall")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an idle Poll waited for the manager's mutex")
	}
	mgr.mu.Unlock()

	// A wall pending behind an active transaction: every Poll must try it,
	// and the one after the transaction commits releases it.
	init := clock.Tick()
	act.Class(1).Begin(init)
	for i := 0; i < 12; i++ {
		clock.Tick()
	}
	if mgr.Poll() {
		t.Fatal("wall released despite an active mid-class transaction")
	}
	act.Class(1).Commit(init, clock.Tick())
	if !mgr.Poll() {
		t.Fatal("a Poll after the commit did not release the pending wall")
	}
}
