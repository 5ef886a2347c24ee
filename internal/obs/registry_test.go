package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func scrape(r *Registry) string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("hdd_txn_begins_total", "Transactions begun.", "class", "0").Add(3)
	r.Counter("hdd_txn_begins_total", "Transactions begun.", "class", "ro").Add(1)
	g := r.Gauge("hdd_open", "Open things.")
	g.Set(7)
	r.GaugeFunc("hdd_derived", "Scrape-time value.", func() int64 { return 42 })
	h := r.Histogram("hdd_lat_seconds", "Latency.", "op", "commit")
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	vh := r.ValueHistogram("hdd_batch_ops", "Ops per batch.")
	vh.Observe(3)
	vh.Observe(5)

	out := scrape(r)
	for _, want := range []string{
		"# HELP hdd_txn_begins_total Transactions begun.\n",
		"# TYPE hdd_txn_begins_total counter\n",
		`hdd_txn_begins_total{class="0"} 3` + "\n",
		`hdd_txn_begins_total{class="ro"} 1` + "\n",
		"# TYPE hdd_open gauge\n",
		"hdd_open 7\n",
		"hdd_derived 42\n",
		"# TYPE hdd_lat_seconds summary\n",
		`hdd_lat_seconds{op="commit",quantile="0.5"} 0.002` + "\n",
		`hdd_lat_seconds{op="commit",quantile="0.99"} 0.004` + "\n",
		`hdd_lat_seconds_sum{op="commit"} 0.006` + "\n",
		`hdd_lat_seconds_count{op="commit"} 2` + "\n",
		// Unitless summaries render raw integers, not seconds.
		"# TYPE hdd_batch_ops summary\n",
		`hdd_batch_ops{quantile="0.5"} 3` + "\n",
		`hdd_batch_ops{quantile="0.99"} 5` + "\n",
		"hdd_batch_ops_sum 8\n",
		"hdd_batch_ops_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// TYPE must precede the family's samples.
	if strings.Index(out, "# TYPE hdd_txn_begins_total") > strings.Index(out, `hdd_txn_begins_total{class="0"}`) {
		t.Error("TYPE line after samples")
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h", "b", "2", "a", "1")
	if !strings.Contains(scrape(r), `c_total{a="1",b="2"} 0`) {
		t.Fatalf("labels not sorted:\n%s", scrape(r))
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h", "msg", "a\"b\\c\nd")
	if !strings.Contains(scrape(r), `c_total{msg="a\"b\\c\nd"} 0`) {
		t.Fatalf("label not escaped:\n%s", scrape(r))
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "h")
	mustPanic("duplicate series", func() { r.Counter("dup_total", "h") })
	mustPanic("kind mismatch", func() { r.Gauge("dup_total", "h", "x", "1") })
	mustPanic("bad name", func() { r.Counter("1bad", "h") })
	mustPanic("odd labels", func() { r.Counter("odd_total", "h", "k") })
	mustPanic("quantile label", func() { r.Counter("q_total", "h", "quantile", "0.5") })
}

func TestConcurrentScrapeAndUpdate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("busy_total", "h")
	h := r.Histogram("busy_seconds", "h")
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					c.Inc()
					h.Observe(time.Microsecond)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		_ = scrape(r)
	}
	close(done)
	wg.Wait()
}
