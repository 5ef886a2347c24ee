package enginereg

import (
	"strings"
	"testing"
	"time"

	"hdd/internal/cc"
	"hdd/internal/schema"
)

// TestBuildEveryEngine builds each registered engine over the chain
// partition and runs one committed update through it — the registry must
// hand out working engines, not just constructors that compile.
func TestBuildEveryEngine(t *testing.T) {
	part, err := ChainPartition(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			eng, err := Build(name, Options{Partition: part})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if eng.Name() != name {
				t.Fatalf("engine reports Name() = %q, registered as %q", eng.Name(), name)
			}
			txn, err := eng.Begin(0)
			if err != nil {
				t.Fatal(err)
			}
			g := schema.GranuleID{Segment: 0, Key: 1}
			if err := txn.Write(g, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			// Read back through a class-1 update (its read set covers
			// segment 0 in the chain). A wall-bounded read-only txn may
			// legitimately not see the commit yet, so it only has to begin
			// and finish cleanly.
			rd, err := eng.Begin(1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rd.Read(g)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "v" {
				t.Fatalf("read back %q, want %q", got, "v")
			}
			if err := rd.Commit(); err != nil {
				t.Fatal(err)
			}
			ro, err := eng.BeginReadOnly()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ro.Read(g); err != nil {
				t.Fatal(err)
			}
			if err := ro.Commit(); err != nil {
				t.Fatal(err)
			}
			if eng.Stats().Commits < 1 {
				t.Fatal("engine counted no commits")
			}
		})
	}
}

func TestLookupNormalization(t *testing.T) {
	cases := map[string]string{
		"HDD": "HDD", "hdd": "HDD",
		"HDD-msg": "HDD-msg", "hddmsg": "HDD-msg", "hdd_msg": "HDD-msg",
		"SDD-1": "SDD-1", "sdd1": "SDD-1", "sdd_1": "SDD-1",
		"mv2pl": "MV2PL", "2pl": "2PL", "to": "TO", "Mvto": "MVTO",
	}
	for in, want := range cases {
		e, ok := Lookup(in)
		if !ok {
			t.Fatalf("Lookup(%q) missed", in)
		}
		if e.Name != want {
			t.Fatalf("Lookup(%q) = %q, want %q", in, e.Name, want)
		}
	}
	if _, ok := Lookup("silo"); ok {
		t.Fatal("Lookup accepted an unregistered engine")
	}
}

// TestUnknownEngineListsNames: the error a typo earns must enumerate what
// is actually registered.
func TestUnknownEngineListsNames(t *testing.T) {
	_, err := Build("silo", Options{})
	if err == nil {
		t.Fatal("Build of unknown engine succeeded")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-engine error %q does not list %q", err, name)
		}
	}
}

// TestDataDirRequiresDurableEngine: asking a baseline for durability is an
// error, not a silent memory-only run.
func TestDataDirRequiresDurableEngine(t *testing.T) {
	part, err := ChainPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build("2pl", Options{Partition: part, DataDir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "durability") {
		t.Fatalf("Build(2PL, DataDir) = %v, want durability error", err)
	}
}

// TestFlushIntervalRefused: the fixed group-commit window is gone, so a
// non-zero WALFlushInterval is an error, not silently ignored.
func TestFlushIntervalRefused(t *testing.T) {
	part, err := ChainPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build("hdd", Options{Partition: part, DataDir: t.TempDir(), WALFlushInterval: time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "WALFlushInterval") {
		t.Fatalf("Build(HDD, WALFlushInterval) = %v, want a WALFlushInterval error", err)
	}
}

// TestDurableBuildHasCapability: a DataDir build of HDD comes up with the
// durability and checkpoint capabilities live.
func TestDurableBuildHasCapability(t *testing.T) {
	part, err := ChainPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Build("hdd", Options{Partition: part, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	caps := cc.CapabilitiesOf(eng)
	if !caps.Has(cc.CapDurability | cc.CapCheckpoint) {
		t.Fatalf("durable HDD capabilities = %v, want durability+checkpoint", caps)
	}
	// And a memory-only build must not claim them.
	mem, err := Build("hdd", Options{Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if c := cc.CapabilitiesOf(mem); c.Has(cc.CapDurability) {
		t.Fatalf("memory-only HDD claims durability: %v", c)
	}
}
