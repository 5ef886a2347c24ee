// Package obs is the engine's observability plane (DESIGN.md §13): a
// typed metrics registry with Prometheus text-format exposition, a
// bounded lock-free event-trace ring, and the HTTP handlers that expose
// both next to net/http/pprof and a health probe.
//
// The package is deliberately self-contained — standard library plus the
// repo's own internal/metrics instruments — so the instrumented layers
// (core, wal, server) gain no external dependency. The engine counts
// either way; a plane only exposes: the engine owns its metrics.Counter
// values and registers them here when a plane is attached, and a nil
// *Ring records nothing.
//
// # Shape
//
//   - Registry: named metric families (counter, gauge, summary) with
//     constant label sets, registered once at construction time and
//     scraped via WritePrometheus. Collect-on-scrape variants
//     (CounterFunc/GaugeFunc) adapt existing engine counters without a
//     second write path.
//   - Ring: a power-of-two seqlock ring of fixed-shape engine events
//     (wall release, begin-window advance, reap, GC prune, WAL flush,
//     snapshot, degraded transition). Writers never block and never
//     allocate; the oldest events are overwritten. Snapshot skips slots
//     mid-overwrite, so a reader gets a consistent recent suffix.
//   - Plane: one Registry plus one Ring, the unit the engine and server
//     share, served by Handler at /metrics, /debug/events, /healthz and
//     /debug/pprof/.
package obs

// Plane bundles the metrics registry and the event-trace ring one process
// shares between its engine and server. Without one the engine still
// counts, but exposes nothing and traces nothing.
type Plane struct {
	Reg    *Registry
	Events *Ring
}

// NewPlane builds a plane with an empty registry and a ring of the
// default capacity (4096 events).
func NewPlane() *Plane {
	return &Plane{Reg: NewRegistry(), Events: NewRing(4096)}
}
