package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	p := NewPlane()
	p.Reg.Counter("demo_total", "A demo counter.").Add(5)
	p.Events.Record(KindWALFlush, NoClass, 3, 120, 41)
	p.Events.Record(KindBeginWindow, 1, 99, 0, 0)

	healthy := true
	srv := httptest.NewServer(p.Handler(func() (bool, string) {
		if healthy {
			return true, "ok"
		}
		return false, "degraded: disk on fire"
	}))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "demo_total 5\n") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}

	code, body = get(t, srv, "/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events = %d", code)
	}
	var out struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Seq    uint64           `json:"seq"`
			At     string           `json:"at"`
			Kind   string           `json:"kind"`
			Class  *int32           `json:"class"`
			Fields map[string]int64 `json:"fields"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/debug/events not JSON: %v\n%s", err, body)
	}
	if out.Total != 2 || len(out.Events) != 2 {
		t.Fatalf("events = %+v, want 2", out)
	}
	flush := out.Events[0]
	if flush.Kind != "wal-flush" || flush.Fields["records"] != 3 ||
		flush.Fields["waiters"] != 120 || flush.Fields["sync_us"] != 41 || flush.Class != nil {
		t.Fatalf("wal-flush event = %+v", flush)
	}
	if bw := out.Events[1]; bw.Kind != "begin-window" || bw.Class == nil || *bw.Class != 1 || bw.Fields["window_tick"] != 99 {
		t.Fatalf("begin-window event = %+v", bw)
	}

	if code, body = get(t, srv, "/debug/events?n=1"); code != http.StatusOK || strings.Count(body, `"seq"`) != 1 {
		t.Fatalf("/debug/events?n=1 = %d:\n%s", code, body)
	}

	if code, body = get(t, srv, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz healthy = %d %q", code, body)
	}
	healthy = false
	if code, body = get(t, srv, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "disk on fire") {
		t.Fatalf("/healthz degraded = %d %q", code, body)
	}

	if code, _ = get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _ = get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestHandlerNilHealth(t *testing.T) {
	srv := httptest.NewServer(NewPlane().Handler(nil))
	defer srv.Close()
	if code, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz with nil probe = %d", code)
	}
}
