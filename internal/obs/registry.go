package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdd/internal/metrics"
)

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a duration distribution backed by the repo's reservoir
// histogram (internal/metrics), exposed in Prometheus terms as a summary:
// quantile samples in seconds plus _sum and _count.
type Histogram struct {
	h metrics.Histogram
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.h.Observe(d) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.h.Count() }

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration { return h.h.Mean() }

// Quantile returns the q-quantile of the retained reservoir.
func (h *Histogram) Quantile(q float64) time.Duration { return h.h.Quantile(q) }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return h.h.Max() }

// ValueHistogram is a unitless distribution — batch sizes, queue depths —
// backed by the same reservoir histogram as Histogram but exposed as raw
// integer quantiles rather than seconds.
type ValueHistogram struct {
	h metrics.Histogram
}

// Observe records one value.
func (h *ValueHistogram) Observe(v int64) { h.h.Observe(time.Duration(v)) }

// Count returns the number of observations.
func (h *ValueHistogram) Count() int64 { return h.h.Count() }

// Mean returns the mean observed value.
func (h *ValueHistogram) Mean() int64 { return int64(h.h.Mean()) }

// Quantile returns the q-quantile of the retained reservoir.
func (h *ValueHistogram) Quantile(q float64) int64 { return int64(h.h.Quantile(q)) }

// Max returns the largest observation.
func (h *ValueHistogram) Max() int64 { return int64(h.h.Max()) }

// summaryQuantiles are the quantile samples every summary family exposes.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// metricKind is the exposition TYPE of a family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindSummary
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindSummary:
		return "summary"
	}
	return "untyped"
}

// collector writes one series' samples. Implementations read their value
// at scrape time; func-backed collectors may take engine locks, so the
// engine must never call into the registry while holding them (it does
// not: registration happens at construction, scrapes from HTTP).
type collector interface {
	collect(w io.Writer, name, labels string)
}

type series struct {
	labels string // pre-rendered `{k="v",...}` or ""
	col    collector
}

// family is one named metric family: a TYPE, a HELP string, and the
// series registered under it, in registration order.
type family struct {
	name, help string
	kind       metricKind
	series     []series
	seen       map[string]bool // label-set dedup
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration (Counter/Gauge/Histogram/...Func) is
// expected at construction time and panics on programmer errors —
// malformed names, duplicate series, kind mismatches — exactly like
// prometheus.MustRegister would. Scraping is safe concurrently with
// instrument updates.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers (or extends) a counter family and returns the series'
// instrument. labels are constant key/value pairs: ("class", "0").
func (r *Registry) Counter(name, help string, labels ...string) *metrics.Counter {
	c := &metrics.Counter{}
	r.register(name, help, kindCounter, labels, intCollector(c.Load))
	return c
}

// Gauge registers a gauge series and returns its instrument.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, labels, intCollector(g.Value))
	return g
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the adapter for counters the engine already maintains
// (pass a metrics.Counter's Load).
// fn must be monotone for the series to behave as a counter.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...string) {
	r.register(name, help, kindCounter, labels, intCollector(fn))
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...string) {
	r.register(name, help, kindGauge, labels, intCollector(fn))
}

// GaugeSecondsFunc registers a gauge series read from fn at scrape time
// and rendered in seconds.
func (r *Registry) GaugeSecondsFunc(name, help string, fn func() time.Duration, labels ...string) {
	r.register(name, help, kindGauge, labels, secondsCollector(fn))
}

// Histogram registers a duration summary series and returns its
// instrument. Exposed as quantile samples in seconds plus _sum/_count.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	h := &Histogram{}
	r.register(name, help, kindSummary, labels, (*summaryCollector)(h))
	return h
}

// ValueHistogram registers a unitless summary series and returns its
// instrument. Exposed as raw integer quantile samples plus _sum/_count —
// the right shape for batch sizes and pipeline depths, where rendering
// nanosecond-scaled seconds would be nonsense.
func (r *Registry) ValueHistogram(name, help string, labels ...string) *ValueHistogram {
	h := &ValueHistogram{}
	r.register(name, help, kindSummary, labels, (*valueSummaryCollector)(h))
	return h
}

func (r *Registry) register(name, help string, kind metricKind, labels []string, col collector) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, seen: make(map[string]bool)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v and %v", name, f.kind, kind))
	}
	if f.seen[rendered] {
		panic(fmt.Sprintf("obs: duplicate series %s%s", name, rendered))
	}
	f.seen[rendered] = true
	f.series = append(f.series, series{labels: rendered, col: col})
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		r.mu.Lock()
		series := make([]series, len(f.series))
		copy(series, f.series)
		r.mu.Unlock()
		for _, s := range series {
			s.col.collect(w, f.name, s.labels)
		}
	}
}

// intCollector adapts an int64 reader into one sample line.
type intCollector func() int64

func (fn intCollector) collect(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, strconv.FormatInt(fn(), 10))
}

// secondsCollector adapts a duration reader into one sample line.
type secondsCollector func() time.Duration

func (fn secondsCollector) collect(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatSeconds(fn()))
}

// summaryCollector renders a Histogram as a Prometheus summary in
// seconds: one sample per quantile plus _sum and _count.
type summaryCollector Histogram

func (h *summaryCollector) collect(w io.Writer, name, labels string) {
	hh := (*Histogram)(h)
	count := hh.Count()
	for _, q := range summaryQuantiles {
		fmt.Fprintf(w, "%s%s %s\n", name, withQuantile(labels, q),
			formatSeconds(hh.Quantile(q)))
	}
	// Mean*Count reconstructs the sum the underlying histogram keeps in
	// integer nanoseconds; re-deriving it here avoids widening the
	// metrics.Histogram API.
	sum := time.Duration(count) * hh.Mean()
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatSeconds(sum))
	fmt.Fprintf(w, "%s_count%s %s\n", name, labels, strconv.FormatInt(count, 10))
}

// valueSummaryCollector renders a ValueHistogram as a Prometheus summary
// of raw integers.
type valueSummaryCollector ValueHistogram

func (h *valueSummaryCollector) collect(w io.Writer, name, labels string) {
	hh := (*ValueHistogram)(h)
	count := hh.Count()
	for _, q := range summaryQuantiles {
		fmt.Fprintf(w, "%s%s %s\n", name, withQuantile(labels, q),
			strconv.FormatInt(hh.Quantile(q), 10))
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, strconv.FormatInt(count*hh.Mean(), 10))
	fmt.Fprintf(w, "%s_count%s %s\n", name, labels, strconv.FormatInt(count, 10))
}

func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// withQuantile appends the quantile label to a pre-rendered label set.
func withQuantile(labels string, q float64) string {
	qs := `quantile="` + strconv.FormatFloat(q, 'g', -1, 64) + `"`
	if labels == "" {
		return "{" + qs + "}"
	}
	return labels[:len(labels)-1] + "," + qs + "}"
}

// renderLabels renders key/value pairs as `{k="v",...}`, keys sorted so a
// series' identity does not depend on argument order.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if !validName(kv[i]) || kv[i] == "quantile" {
			panic(fmt.Sprintf("obs: invalid label name %q", kv[i]))
		}
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// validName checks the exposition-format name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* (':' is reserved by convention for recording
// rules, so it is rejected here).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
