package metrics

import (
	"math/rand/v2"
	"sync/atomic"
)

// counterShards is the number of cells a Counter stripes its increments
// over. Power of two so the cell pick is a mask, sized for the modest core
// counts the benchmarks target; Load sums all cells regardless.
const counterShards = 8

// counterCell pads each cell to a cache line so increments from different
// cores never false-share — neither with sibling cells nor with the
// neighbouring counters of a struct that holds several.
type counterCell struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a sharded, cache-line-padded monotone counter. A plain
// atomic.Int64 bounces its cache line between every core that increments
// it, and packing fifteen of them into one struct made even *distinct*
// counters contend (false sharing) — a Stats() under parallel load stalled
// the hot path. Add picks a cell with the runtime's per-core cheap random
// source, so concurrent increments usually land on distinct lines; Load
// sums the cells.
//
// Counter trades exactness of intermediate reads for scalability the same
// way sync/atomic counters already do: Load is a sum of per-cell loads,
// which is exact whenever no Add is concurrently in flight (the only time
// the engines' Stats snapshots promise consistency).
type Counter struct {
	cells [counterShards]counterCell
}

// Add adds n to the counter.
func (c *Counter) Add(n int64) {
	c.cells[rand.Uint64()&(counterShards-1)].n.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the counter's current value.
func (c *Counter) Load() int64 {
	var total int64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}
