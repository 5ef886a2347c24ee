package main

// Latency recording and the order statistics the metrics are built from.
// A run can complete millions of transactions (embedded_mem), so
// latencies go into fixed-size log-linear histograms — 128 buckets per
// power of two, under 0.8 % relative bucket width, exact counts — instead
// of one slice element per sample: recording neither allocates nor grows
// the heap the mem_mb metric reads.

import (
	"math/bits"
	"sort"
	"time"
)

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histBuckets covers 1 ns .. 2^41 ns (~37 min) of latency.
	histBuckets = (41 - histSubBits + 1) * histSub
)

// hist is a latency histogram in nanoseconds. It is not safe for
// concurrent use: every recording goroutine owns its own and they are
// merged after the run.
type hist struct {
	counts [histBuckets]uint32
	n      int64
	sum    int64
	max    int64
}

func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - histSubBits
	i := e<<histSubBits + int(v>>uint(e))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketBounds returns a bucket's lowest value and its width.
func bucketBounds(i int) (lo, width int64) {
	if i < 2*histSub {
		return int64(i), 1
	}
	e := uint(i>>histSubBits - 1)
	return int64(i&(histSub-1)+histSub) << e, 1 << e
}

func (h *hist) record(d time.Duration) {
	v := int64(d)
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds the rank; 0 with no samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var before int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(before+int64(c)) > rank {
			lo, width := bucketBounds(i)
			return float64(lo) + float64(width)*(rank-float64(before)+0.5)/float64(c)
		}
		before += int64(c)
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantileOf returns the q-quantile of raw samples (sorted in place).
func quantileOf(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (v[i+1]-v[i])*(pos-float64(i))
}

func median(v []float64) float64 {
	return quantileOf(append([]float64(nil), v...), 0.5)
}

// windowSpread is (max-min)/median of a metric's per-window values: the
// within-run noise printed beside each end-to-end metric.
func windowSpread(v []float64) float64 {
	m := median(v)
	if len(v) == 0 || m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}
