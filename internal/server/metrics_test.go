package server_test

// End-to-end tests of the observability plane over HTTP: a durable engine
// and its server sharing one plane, scraped through plane.Handler exactly
// as cmd/hddserver serves it. The exposition is checked against a strict
// text-format parser (HELP/TYPE ordering, name grammar, duplicate series)
// rather than substring matching, and counters must be monotone across
// scrapes. The degraded test walks the whole fail-stop story: injected
// fsync fault -> /healthz 503 -> degraded gauge -> trace ring event.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hdd"
	"hdd/internal/core"
	"hdd/internal/obs"
	"hdd/internal/server"
	"hdd/internal/vfs"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	labelRe      = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// parseStrict validates Prometheus text format 0.0.4 and returns the
// sample series. It enforces what the lenient parsers elsewhere skip:
// every sample's family must have been announced by # HELP then # TYPE
// (in that order) before its first sample, metric and label names must
// match the grammar, values must parse as floats, and no series
// (name + label set) may appear twice.
func parseStrict(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := make(map[string]float64)
	helped := make(map[string]bool)
	typed := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// Comment line: "# HELP name text" / "# TYPE name kind";
			// anything else after # is a free comment.
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			name := f[2]
			switch f[1] {
			case "HELP":
				if helped[name] {
					t.Errorf("line %d: second HELP for %s", ln+1, name)
				}
				helped[name] = true
			case "TYPE":
				if !helped[name] {
					t.Errorf("line %d: TYPE %s before its HELP", ln+1, name)
				}
				if typed[name] {
					t.Errorf("line %d: second TYPE for %s", ln+1, name)
				}
				if len(f) < 4 {
					t.Errorf("line %d: TYPE without a kind: %q", ln+1, line)
					continue
				}
				switch kind := f[3]; kind {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					t.Errorf("line %d: unknown TYPE %q", ln+1, kind)
				}
				typed[name] = true
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("line %d: no value separator: %q", ln+1, line)
			continue
		}
		key, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Errorf("line %d: bad value %q: %v", ln+1, val, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Errorf("line %d: unterminated label block: %q", ln+1, key)
				continue
			}
			name = key[:i]
			for _, pair := range strings.Split(key[i+1:len(key)-1], ",") {
				if !labelRe.MatchString(pair) {
					t.Errorf("line %d: bad label pair %q", ln+1, pair)
				}
			}
		}
		if !metricNameRe.MatchString(name) {
			t.Errorf("line %d: bad metric name %q", ln+1, name)
		}
		// Summaries announce the base name; their samples add suffixes.
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[family] {
			t.Errorf("line %d: sample %s before its TYPE", ln+1, name)
		}
		if _, dup := series[key]; dup {
			t.Errorf("line %d: duplicate series %s", ln+1, key)
		}
		f, _ := strconv.ParseFloat(val, 64)
		series[key] = f
	}
	return series
}

func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text format 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseStrict(t, string(body))
}

// runMixed pushes updates across every class plus wall-bounded read-only
// transactions through the public client.
func runMixed(t *testing.T, addr string, classes, txns int) {
	t.Helper()
	c := dial(t, addr)
	for i := 0; i < txns; i++ {
		cls := hdd.ClassID(i % classes)
		key := uint64(i % 8)
		err := hdd.Run(c, cls, func(tx hdd.Txn) error {
			// Class 0 reads its own root segment (Protocol B); higher
			// classes read below themselves (Protocol A).
			if _, err := tx.Read(hdd.GranuleID{Segment: 0, Key: key}); err != nil {
				return err
			}
			return tx.Write(hdd.GranuleID{Segment: hdd.SegmentID(cls), Key: key}, []byte(fmt.Sprintf("i%d", i)))
		}, hdd.RetryPolicy{MaxAttempts: 50})
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if i%4 == 0 {
			if err := hdd.Run(c, hdd.NoClass, func(tx hdd.Txn) error {
				_, err := tx.Read(hdd.GranuleID{Segment: 0, Key: key})
				return err
			}, hdd.RetryPolicy{MaxAttempts: 50}); err != nil {
				t.Fatalf("ro txn %d: %v", i, err)
			}
		}
	}
}

func TestMetricsEndToEnd(t *testing.T) {
	plane := obs.NewPlane()
	srv, addr := startServer(t, 3, core.Config{
		WallInterval:   4,
		TxnTimeout:     10 * time.Second,
		GCEveryCommits: 8,
		DataDir:        t.TempDir(),
		SnapshotBytes:  -1,
		Obs:            plane,
	}, server.Options{Obs: plane})
	hs := httptest.NewServer(plane.Handler(srv.Health()))
	defer hs.Close()

	runMixed(t, addr, 3, 60)
	first := scrape(t, hs.URL)

	// The acceptance-criteria series: per-class lifecycle counters,
	// per-protocol reads, the WAL fsync summary, the degraded gauge, and
	// the server's own request latencies.
	for _, key := range []string{
		`hdd_txn_begins_total{class="0"}`,
		`hdd_txn_commits_total{class="1"}`,
		`hdd_txn_commits_total{class="2"}`,
		`hdd_txn_commits_total{class="ro"}`,
		`hdd_reads_total{protocol="A"}`,
		`hdd_reads_total{protocol="B"}`,
		`hdd_reads_total{protocol="C"}`,
		`hdd_wal_fsync_seconds_count`,
		`hdd_wal_records_total`,
		`hdd_server_request_seconds_count{op="commit"}`,
		`hdd_server_request_seconds_count{op="read"}`,
		`hdd_server_conns_accepted_total`,
	} {
		if v, ok := first[key]; !ok {
			t.Errorf("series %s missing from scrape", key)
		} else if v <= 0 {
			t.Errorf("series %s = %v, want > 0", key, v)
		}
	}
	if v := first["hdd_durability_degraded"]; v != 0 {
		t.Errorf("hdd_durability_degraded = %v on a healthy server", v)
	}

	runMixed(t, addr, 3, 30)
	second := scrape(t, hs.URL)
	for key, v1 := range first {
		if !strings.Contains(key, "_total") && !strings.HasSuffix(keyName(key), "_count") && !strings.HasSuffix(keyName(key), "_sum") {
			continue // gauges and quantiles may move either way
		}
		v2, ok := second[key]
		if !ok {
			t.Errorf("series %s disappeared between scrapes", key)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s went backwards: %v -> %v", key, v1, v2)
		}
	}
	if c1, c2 := first[`hdd_txn_commits_total{class="0"}`], second[`hdd_txn_commits_total{class="0"}`]; c2 <= c1 {
		t.Errorf("class 0 commits did not advance: %v -> %v", c1, c2)
	}

	// /healthz is 200 on a healthy server.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz = %s, want 200", resp.Status)
	}

	// The trace ring serves JSON with the kinds the workload produced.
	var events struct {
		Total  int
		Events []struct {
			Kind string `json:"kind"`
		}
	}
	resp, err = http.Get(hs.URL + "/debug/events?n=4096")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("decoding /debug/events: %v", err)
	}
	resp.Body.Close()
	kinds := make(map[string]int)
	for _, ev := range events.Events {
		kinds[ev.Kind]++
	}
	for _, k := range []string{"wal-flush", "wall-release"} {
		if kinds[k] == 0 {
			t.Errorf("no %s events in /debug/events; kinds = %v", k, kinds)
		}
	}

	// The CPU profile endpoint answers (the short window keeps the test
	// fast; content is pprof's own concern).
	resp, err = http.Get(hs.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/profile = %s, want 200", resp.Status)
	}
}

// keyName strips the label block off a series key.
func keyName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// TestHealthzDegraded walks the fail-stop story over HTTP: an injected
// fsync fault latches the engine degraded, which must flip /healthz to
// 503, raise the degraded gauge, and leave a trace event.
func TestHealthzDegraded(t *testing.T) {
	fs := vfs.NewFaulty(nil)
	fs.Inject(vfs.Fault{Op: vfs.OpSync, Nth: 6})
	plane := obs.NewPlane()
	srv, addr := startServer(t, 2, core.Config{
		WallInterval:  2,
		TxnTimeout:    10 * time.Second,
		DataDir:       t.TempDir(),
		SnapshotBytes: -1,
		FS:            fs,
		Obs:           plane,
	}, server.Options{Obs: plane})
	hs := httptest.NewServer(plane.Handler(srv.Health()))
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz before fault = %s, want 200", resp.Status)
	}

	c := dial(t, addr)
	var failErr error
	for seq := 0; seq < 50 && failErr == nil; seq++ {
		failErr = hdd.Run(c, 0, func(tx hdd.Txn) error {
			return tx.Write(hdd.GranuleID{Segment: 0, Key: 1}, []byte(fmt.Sprintf("v%02d", seq)))
		}, hdd.RetryPolicy{})
	}
	if !errors.Is(failErr, hdd.ErrDurabilityFailed) {
		t.Fatalf("load failed with %v, want hdd.ErrDurabilityFailed", failErr)
	}

	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz after fault = %s, want 503", resp.Status)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Errorf("/healthz body = %q, want the degraded cause", body)
	}

	series := scrape(t, hs.URL)
	if v := series["hdd_durability_degraded"]; v != 1 {
		t.Errorf("hdd_durability_degraded = %v, want 1", v)
	}
	if v := series["hdd_durability_failures_total"]; v == 0 {
		t.Error("hdd_durability_failures_total = 0 on a degraded server")
	}

	var events struct {
		Events []struct {
			Kind string `json:"kind"`
		}
	}
	resp, err = http.Get(hs.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("decoding /debug/events: %v", err)
	}
	resp.Body.Close()
	found := false
	for _, ev := range events.Events {
		if ev.Kind == "degraded" {
			found = true
		}
	}
	if !found {
		t.Error("no degraded event in the trace ring")
	}
}
