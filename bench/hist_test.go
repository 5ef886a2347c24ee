package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// Every value must land in a bucket whose bounds contain it, and the
// bucket must be narrow: under 0.8 % of the value.
func TestHistBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		v := int64(math.Exp(rng.Float64() * 28)) // 1 ns .. ~24 min
		b := bucketOf(v)
		lo, width := bucketBounds(b)
		if v < lo || v >= lo+width {
			t.Fatalf("value %d in bucket %d = [%d,%d)", v, b, lo, lo+width)
		}
		if v >= 2*histSub && float64(width)/float64(v) > 0.008 {
			t.Fatalf("value %d: bucket width %d is %.4f of it", v, width, float64(width)/float64(v))
		}
	}
	if b := bucketOf(math.MaxInt64); b != histBuckets-1 {
		t.Errorf("huge value lands in bucket %d, want the last (%d)", b, histBuckets-1)
	}
}

// Quantiles from the histogram must agree with exact order statistics to
// within a bucket's width, and merging must equal recording into one.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var whole, a, b hist
	var exact []float64
	for i := 0; i < 50000; i++ {
		// Log-normal latencies around 1 ms with a heavy tail.
		d := time.Duration(math.Exp(rng.NormFloat64()*0.8) * float64(time.Millisecond))
		exact = append(exact, float64(d))
		whole.record(d)
		if i%2 == 0 {
			a.record(d)
		} else {
			b.record(d)
		}
	}
	a.merge(&b)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := quantileOf(exact, q)
		if got := whole.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f = %.0f, exact %.0f", q, got, want)
		}
		if whole.quantile(q) != a.quantile(q) {
			t.Errorf("q%.3f differs after merge", q)
		}
	}
	if a.n != whole.n || a.max != whole.max || a.mean() != whole.mean() {
		t.Errorf("merge lost samples: n %d/%d max %d/%d", a.n, whole.n, a.max, whole.max)
	}
	var empty hist
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("empty histogram must report 0")
	}
}

func TestWindowSpread(t *testing.T) {
	if got := windowSpread([]float64{90, 100, 120}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want (120-90)/100", got)
	}
	if windowSpread(nil) != 0 || windowSpread([]float64{0, 0}) != 0 {
		t.Error("degenerate spreads must be 0")
	}
}
