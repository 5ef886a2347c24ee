package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	mean := h.Mean()
	if mean < 50*time.Millisecond || mean > 51*time.Millisecond {
		t.Fatalf("mean = %v", mean)
	}
	p50 := h.Quantile(0.5)
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 95*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
}

func TestHistogramReservoirOverflow(t *testing.T) {
	var h Histogram
	for i := 0; i < reservoirCap*3; i++ {
		h.Observe(time.Duration(i))
	}
	if h.Count() != int64(reservoirCap*3) {
		t.Fatalf("Count = %d", h.Count())
	}
	// Quantiles remain answerable.
	if h.Quantile(0.5) <= 0 {
		t.Fatal("median lost after overflow")
	}
}

// TestHistogramReservoirRepresentative pins the Algorithm R property the
// old multiplicative-hash overwrite lacked: after a long ascending run,
// the retained samples track the full population, so the median lands
// near n/2 instead of being skewed toward whatever slots the hash
// happened to revisit.
func TestHistogramReservoirRepresentative(t *testing.T) {
	var h Histogram
	const n = 200_000
	for i := 1; i <= n; i++ {
		h.Observe(time.Duration(i))
	}
	p50 := float64(h.Quantile(0.50))
	if p50 < 0.40*n || p50 > 0.60*n {
		t.Errorf("p50 = %.0f after ascending run of %d, want within 10%% of %d", p50, n, n/2)
	}
	p99 := float64(h.Quantile(0.99))
	if p99 < 0.94*n {
		t.Errorf("p99 = %.0f, want near %d", p99, n)
	}
	// Early observations must still be *able* to survive, but late ones
	// dominate a 49x-overflowed reservoir only if slots keep rotating:
	// every slot should have been overwritten at least once with high
	// probability, so no more than a sliver of the reservoir predates
	// overflow.
	h.mu.Lock()
	early := 0
	for _, s := range h.samples {
		if s <= reservoirCap {
			early++
		}
	}
	h.mu.Unlock()
	// E[early] = cap·(cap/n) ≈ 84 for these parameters; 10x headroom.
	if early > 840 {
		t.Errorf("%d of %d reservoir slots still hold pre-overflow samples; reservoir not rotating", early, reservoirCap)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

// TestCounterConcurrentAdds: increments from many goroutines, spread over
// the counter's cells, sum exactly once they stop; Inc and Add agree.
func TestCounterConcurrentAdds(t *testing.T) {
	const goroutines, perG = 8, 10000
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("Load() = %d, want %d", got, goroutines*perG)
	}
	c.Add(-5)
	if got := c.Load(); got != goroutines*perG-5 {
		t.Fatalf("after Add(-5): Load() = %d, want %d", got, goroutines*perG-5)
	}
}
