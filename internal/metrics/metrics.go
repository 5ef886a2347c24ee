// Package metrics holds the in-process instruments every layer counts and
// times with: a sharded counter and a reservoir latency histogram. The
// engines' Stats, the observability plane's registry and the simulator all
// build on these two types.
package metrics

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// Histogram is a concurrency-safe latency histogram with power-of-two-ish
// bucketing plus exact percentile estimation from retained samples when the
// population is small.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	samples []time.Duration // reservoir, capped
	rng     *rand.Rand      // reservoir index source; seeded deterministically
}

const reservoirCap = 4096

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	if len(h.samples) < reservoirCap {
		h.samples = append(h.samples, d)
		return
	}
	// Algorithm R reservoir sampling: observation n replaces a uniformly
	// random slot with probability cap/n, so every observation ends up
	// retained with equal probability and the samples stay representative
	// over arbitrarily long runs. (An earlier multiplicative-hash-by-count
	// scheme was deterministic per count and never touched some slots,
	// skewing long-run percentiles toward early observations.) The PCG is
	// seeded with a fixed constant: runs stay reproducible, and only slot
	// choice — never the data — depends on it.
	if h.rng == nil {
		h.rng = rand.New(rand.NewPCG(0x9e3779b97f4a7c15, reservoirCap))
	}
	if j := h.rng.Int64N(h.count); j < reservoirCap {
		h.samples[j] = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean duration, or 0 with no observations.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) from the retained samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), h.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Min returns the smallest observation.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}
