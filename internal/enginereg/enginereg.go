// Package enginereg is the shared engine registry: every concurrency-control
// engine the repo implements, by name, buildable from one neutral Options
// struct. Both front ends use it — internal/experiments (cmd/hddbench) to
// sweep engines in-process and cmd/hddserver to pick the backend it
// serves — so the set of engines, their names, and their construction
// defaults cannot drift between the experiments and the service.
//
// Names are matched loosely: lookup lowercases and strips '-'/'_', so
// "SDD-1", "sdd1" and "sdd_1" all resolve to the same entry. Registration
// order is stable and is the order "all" sweeps report.
package enginereg

import (
	"fmt"
	"strings"
	"time"

	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/obs"
	"hdd/internal/schema"
	"hdd/internal/sdd1"
	"hdd/internal/segctl"
	"hdd/internal/tso"
	"hdd/internal/twopl"
	"hdd/internal/vclock"
	"hdd/internal/vfs"
)

// Options is the engine-neutral construction knob set. Every engine takes
// the subset it understands and ignores the rest — except durability,
// which only engines with Durable=true accept (Build rejects a DataDir
// against any other engine rather than silently running memory-only).
// Zero values defer to each engine's own defaults.
type Options struct {
	// Partition is the validated TST-legal decomposition. Required for the
	// partition-aware engines (HDD, HDD-msg, SDD-1); the classical
	// baselines ignore it.
	Partition *schema.Partition
	// Clock is the shared logical clock; nil gives each engine a fresh one.
	Clock *vclock.Clock
	// Recorder observes the produced schedule; nil means no recording.
	Recorder cc.Recorder
	// WallInterval paces HDD time-wall releases in logical ticks.
	WallInterval vclock.Time
	// GCEveryCommits runs HDD version GC every N commits; 0 disables.
	GCEveryCommits int64
	// TxnTimeout is the engine transaction deadline (reaper force-aborts
	// past it); 0 disables.
	TxnTimeout time.Duration

	// DataDir enables the durability layer (snapshot + WAL) for engines
	// that have one; empty runs memory-only.
	DataDir string
	// WALFlushInterval is a fixed group-commit window; 0 decides per batch.
	WALFlushInterval time.Duration
	// SnapshotBytes is the WAL size that triggers a background snapshot;
	// negative disables automatic snapshots.
	SnapshotBytes int64
	// FS routes durability I/O; nil means the real filesystem. Tests
	// inject vfs.Faulty.
	FS vfs.FS

	// Obs attaches an observability plane (metrics + trace ring,
	// DESIGN.md §13) to engines that support one; others ignore it.
	Obs *obs.Plane
}

// Entry describes one registered engine.
type Entry struct {
	// Name is the canonical display name ("HDD", "SDD-1", ...).
	Name string
	// Durable reports whether the engine supports a durability layer
	// (Options.DataDir).
	Durable bool
	// Build constructs an open engine from the options.
	Build func(Options) (cc.Engine, error)
}

// entries is the registry, in stable registration order: HDD first, then
// its message-passing deployment, then the baselines the paper compares
// against (§1.2, §6).
var entries = []Entry{
	{Name: "HDD", Durable: true, Build: func(o Options) (cc.Engine, error) {
		cfg := core.Config{
			Partition:      o.Partition,
			Clock:          o.Clock,
			Recorder:       o.Recorder,
			WallInterval:   o.WallInterval,
			GCEveryCommits: o.GCEveryCommits,
			TxnTimeout:     o.TxnTimeout,
			Obs:            o.Obs,
		}
		if o.DataDir != "" {
			cfg.Durability = core.DurabilityWAL
			cfg.DataDir = o.DataDir
			cfg.WALFlushInterval = o.WALFlushInterval
			cfg.SnapshotBytes = o.SnapshotBytes
			cfg.FS = o.FS
		}
		return core.NewEngine(cfg)
	}},
	{Name: "HDD-msg", Build: func(o Options) (cc.Engine, error) {
		return segctl.NewEngine(segctl.Config{
			Partition:    o.Partition,
			Clock:        o.Clock,
			Recorder:     o.Recorder,
			WallInterval: o.WallInterval,
		})
	}},
	{Name: "SDD-1", Build: func(o Options) (cc.Engine, error) {
		return sdd1.NewEngine(sdd1.Config{Partition: o.Partition, Clock: o.Clock, Recorder: o.Recorder})
	}},
	{Name: "MV2PL", Build: func(o Options) (cc.Engine, error) {
		return twopl.NewEngine(twopl.Config{Variant: twopl.MultiVersion, Clock: o.Clock, Recorder: o.Recorder}), nil
	}},
	{Name: "2PL", Build: func(o Options) (cc.Engine, error) {
		return twopl.NewEngine(twopl.Config{Variant: twopl.Strict, Clock: o.Clock, Recorder: o.Recorder}), nil
	}},
	{Name: "TO", Build: func(o Options) (cc.Engine, error) {
		return tso.NewBasic(tso.BasicConfig{Clock: o.Clock, Recorder: o.Recorder}), nil
	}},
	{Name: "MVTO", Build: func(o Options) (cc.Engine, error) {
		return tso.NewMVTO(tso.MVTOConfig{Clock: o.Clock, Recorder: o.Recorder}), nil
	}},
}

// normalize is the loose name form: lowercase with '-' and '_' removed.
func normalize(name string) string {
	return strings.NewReplacer("-", "", "_", "").Replace(strings.ToLower(name))
}

// Names returns the canonical engine names in registration order.
func Names() []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// Lookup resolves a (loosely matched) engine name.
func Lookup(name string) (Entry, bool) {
	n := normalize(name)
	for _, e := range entries {
		if normalize(e.Name) == n {
			return e, true
		}
	}
	return Entry{}, false
}

// Build constructs the named engine. An unknown name errors listing every
// registered name; a DataDir against an engine without a durability layer
// errors rather than silently running memory-only.
func Build(name string, opts Options) (cc.Engine, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("enginereg: unknown engine %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	if opts.DataDir != "" && !e.Durable {
		return nil, fmt.Errorf("enginereg: engine %s has no durability layer; -data-dir requires one of: %s",
			e.Name, strings.Join(durableNames(), ", "))
	}
	return e.Build(opts)
}

func durableNames() []string {
	var out []string
	for _, e := range entries {
		if e.Durable {
			out = append(out, e.Name)
		}
	}
	return out
}

// ChainPartition builds the k-class chain: class i writes segment i and
// may read segments 0..i-1. The induced DHG is a total order, trivially a
// transitive semi-tree — the deepest TST-legal hierarchy, so all three
// HDD protocols are exercised. It is the topology cmd/hddserver and the
// benchmark (bench/) default to.
func ChainPartition(k int) (*schema.Partition, error) {
	if k < 1 {
		return nil, fmt.Errorf("enginereg: chain partition needs >= 1 class, got %d", k)
	}
	names := make([]string, k)
	specs := make([]schema.ClassSpec, k)
	for i := 0; i < k; i++ {
		names[i] = fmt.Sprintf("seg%d", i)
		var reads []schema.SegmentID
		for j := 0; j < i; j++ {
			reads = append(reads, schema.SegmentID(j))
		}
		specs[i] = schema.ClassSpec{Name: fmt.Sprintf("class%d", i),
			Writes: schema.SegmentID(i), Reads: reads}
	}
	return schema.NewPartition(names, specs)
}
