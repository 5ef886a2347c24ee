package alink

import (
	"testing"

	"hdd/internal/activity"
	"hdd/internal/vclock"
)

func TestAcquireCurrentPinsFloor(t *testing.T) {
	part := veePartition(t)
	act := activity.NewSet(3)
	links := New(part, act)
	clock := vclock.NewClock()
	mgr := NewWallManager(links, clock, 4, 1)

	w1, floor1 := mgr.AcquireCurrent()
	if floor1 != wallFloor(w1) {
		t.Fatalf("AcquireCurrent handed back floor %d, the wall's is %d", floor1, wallFloor(w1))
	}
	if mgr.SafeFloor() > floor1 {
		t.Fatalf("SafeFloor %d above acquired floor %d", mgr.SafeFloor(), floor1)
	}

	// Advance to a much newer wall.
	for i := 0; i < 50; i++ {
		init := act.BeginTxn(0, clock)
		act.FinishTxn(0, init, clock, false)
		mgr.Poll()
	}
	w2 := mgr.Current()
	if w2.At <= w1.At {
		t.Fatal("wall did not advance; test vacuous")
	}
	// The old wall's floor still pins SafeFloor.
	if mgr.SafeFloor() > floor1 {
		t.Fatalf("SafeFloor %d escaped pinned floor %d", mgr.SafeFloor(), floor1)
	}
	mgr.Release(floor1)
	if mgr.SafeFloor() <= floor1 {
		t.Fatalf("SafeFloor %d still at old floor after release", mgr.SafeFloor())
	}
	// Releasing a floor nobody holds is a caller's bug, not a no-op: it
	// would otherwise drop another holder's pin of the same instant.
	defer func() {
		if recover() == nil {
			t.Fatal("a second release of the same hold did not panic")
		}
	}()
	mgr.Release(floor1)
}

func TestAcquireFloorMultiset(t *testing.T) {
	part := veePartition(t)
	act := activity.NewSet(3)
	links := New(part, act)
	clock := vclock.NewClock()
	mgr := NewWallManager(links, clock, 1000, 1)
	// Push the current wall's own floor well above the test floors.
	for i := 0; i < 100; i++ {
		clock.Tick()
	}
	mgr.Force()
	if wallFloor(mgr.Current()) <= 7 {
		t.Fatal("setup: current wall floor too low")
	}

	mgr.AcquireFloor(7)
	mgr.AcquireFloor(7)
	mgr.AcquireFloor(3)
	if mgr.SafeFloor() != 3 {
		t.Fatalf("SafeFloor = %d, want 3", mgr.SafeFloor())
	}
	mgr.Release(3)
	if mgr.SafeFloor() != 7 {
		t.Fatalf("SafeFloor = %d, want 7", mgr.SafeFloor())
	}
	mgr.Release(7)
	if mgr.SafeFloor() != 7 {
		t.Fatalf("SafeFloor = %d, want 7 (second holder)", mgr.SafeFloor())
	}
	mgr.Release(7)
	if mgr.SafeFloor() == 7 {
		t.Fatal("floor 7 survived all releases")
	}
}
