package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"frappe/internal/core"
	"frappe/internal/kernelgen"
	"frappe/internal/query"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// expositionLine matches one valid sample line of the text format.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE infNa]+$`)

// TestMetricsAfterTraffic drives query/search/slice traffic through a
// server and asserts /metrics renders every expected family in valid
// exposition format.
func TestMetricsAfterTraffic(t *testing.T) {
	ts := testServer(t)

	// Generate traffic across routes, including one error (bad query).
	for _, q := range []string{
		`{"query": "MATCH (n:module) RETURN n.short_name"}`,
		`{"query": "MATCH ((("}`,
	} {
		resp, err := http.Post(ts.URL+"/api/query", "application/json", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	getJSON(t, ts.URL+"/api/search?pattern=a&limit=5", http.StatusOK)
	getJSON(t, ts.URL+"/api/stats", http.StatusOK)

	text := scrape(t, ts.URL)

	for _, family := range []string{
		// server
		"frappe_http_requests_total", "frappe_http_request_duration_ms",
		"frappe_http_in_flight", "frappe_http_panics_total",
		"frappe_http_slow_requests_total", "frappe_http_shed_total",
		// query
		"frappe_query_total", "frappe_query_duration_ms",
		"frappe_query_errors_total", "frappe_query_budget_aborts_total",
		"frappe_query_rows_returned_total", "frappe_query_steps_total",
		// core + extract (the test server extracted a corpus in-process)
		"frappe_core_epoch", "frappe_core_snapshot_swaps_total",
		"frappe_extract_frontend_total", "frappe_extract_frontend_duration_ms",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("family %s missing from exposition", family)
		}
	}

	// Per-route series advanced for the routes we hit.
	if !regexp.MustCompile(`frappe_http_requests_total\{code="2xx",route="/api/query"\} [1-9]`).MatchString(text) {
		t.Error("no 2xx count for /api/query")
	}
	if !regexp.MustCompile(`frappe_http_requests_total\{code="4xx",route="/api/query"\} [1-9]`).MatchString(text) {
		t.Error("no 4xx count for /api/query (bad query)")
	}

	// Every non-comment line must be well-formed exposition.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// TestMetricsStoreFamilies opens a disk-backed engine and checks the
// page-cache families appear with per-file labels after read traffic.
func TestMetricsStoreFamilies(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Tiny())
	eng, _, err := core.Index(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/db"
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	disk, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ts := httptest.NewServer(New(disk))
	defer ts.Close()

	getJSON(t, ts.URL+"/api/search?pattern=a&limit=5", http.StatusOK)
	text := scrape(t, ts.URL)
	for _, want := range []string{
		`frappe_store_page_cache_hits_total{file="nodes"}`,
		`frappe_store_page_cache_misses_total{file="relationships"}`,
		`frappe_store_page_cache_evictions_total{file="strings"}`,
		`frappe_store_page_cache_checksum_failures_total{file="index"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("store series %s missing", want)
		}
	}
}

// TestQueryProfileEndpoint checks "profile": true returns per-operator
// traces whose dbHits sum matches the executor's step accounting.
func TestQueryProfileEndpoint(t *testing.T) {
	ts := testServer(t)
	body := `{"query": "MATCH (n:module) RETURN n.short_name", "profile": true}`
	resp, err := http.Post(ts.URL+"/api/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Profile == nil || len(out.Profile.Ops) == 0 {
		t.Fatalf("no profile in response: %+v", out)
	}
	var hits int64
	for _, op := range out.Profile.Ops {
		hits += op.DBHits
	}
	if hits != out.Profile.Steps {
		t.Fatalf("dbHits sum %d != steps %d", hits, out.Profile.Steps)
	}
	if int(out.Profile.Rows) != out.Count {
		t.Fatalf("profile rows %d != count %d", out.Profile.Rows, out.Count)
	}
	last := out.Profile.Ops[len(out.Profile.Ops)-1]
	if last.Operator != "Return" {
		t.Fatalf("final operator = %q", last.Operator)
	}

	// Unprofiled responses must not carry the field.
	resp2, err := http.Post(ts.URL+"/api/query", "application/json",
		strings.NewReader(`{"query": "MATCH (n:module) RETURN n.short_name"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(raw), `"profile"`) {
		t.Fatalf("unprofiled response leaked profile: %s", raw)
	}
}

// TestStatsExposesCacheAndQueryCounters checks the /api/stats satellite:
// page-cache stats (disk engines) and query-budget counters.
func TestStatsExposesCacheAndQueryCounters(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Tiny())
	eng, _, err := core.Index(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/db"
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	disk, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ts := httptest.NewServer(New(disk))
	defer ts.Close()

	before := query.CountersSnapshot()
	resp, err := http.Post(ts.URL+"/api/query", "application/json",
		strings.NewReader(`{"query": "MATCH (n:module) RETURN n.short_name"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stats := getJSON(t, ts.URL+"/api/stats", http.StatusOK)
	cache, ok := stats["cache"].(map[string]any)
	if !ok {
		t.Fatalf("no cache block in stats: %v", stats)
	}
	for _, file := range []string{"nodes", "relationships", "properties", "strings", "index"} {
		if _, ok := cache[file]; !ok {
			t.Errorf("cache stats missing file %s", file)
		}
	}
	qc, ok := stats["query"].(map[string]any)
	if !ok {
		t.Fatalf("no query block in stats: %v", stats)
	}
	if got := int64(qc["queries"].(float64)); got < before.Queries+1 {
		t.Errorf("stats queries = %d, want > %d", got, before.Queries)
	}
	if _, ok := stats["shed"]; !ok {
		t.Error("no shed count in stats")
	}
}

// TestSlowRequestLogging checks the -slow-ms satellite: a request over
// the threshold logs through the configured Logf, and the panic path
// uses it too (the middleware.go bugfix).
func TestSlowRequestLogging(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Tiny())
	eng, _, err := core.Index(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	srv := New(eng)
	srv.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	srv.SlowThreshold = time.Nanosecond // everything is slow
	ts := httptest.NewServer(srv)
	defer ts.Close()

	slowBefore := mSlow.Value()
	getJSON(t, ts.URL+"/api/stats", http.StatusOK)

	// The slow line is written after the handler returns, and a stats
	// body larger than net/http's buffers reaches the client before
	// that; give the middleware a moment to finish behind the response.
	var joined string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		joined = strings.Join(lines, "\n")
		mu.Unlock()
		if strings.Contains(joined, "slow request") && strings.Contains(joined, "/api/stats") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slow-request line via Logf; got:\n%s", joined)
		}
	}
	if !strings.Contains(joined, "req-") {
		t.Fatalf("slow line lacks request ID:\n%s", joined)
	}
	if mSlow.Value() <= slowBefore {
		t.Fatal("slow counter did not advance")
	}
}

// TestSlowLoggingDisabled checks SlowThreshold < 0 silences slow lines.
func TestSlowLoggingDisabled(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Tiny())
	eng, _, err := core.Index(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	srv := New(eng)
	srv.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	srv.SlowThreshold = -1
	ts := httptest.NewServer(srv)
	defer ts.Close()
	getJSON(t, ts.URL+"/api/stats", http.StatusOK)
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.Contains(l, "slow request") {
			t.Fatalf("slow line despite disabled threshold: %s", l)
		}
	}
}

// TestPprofOptIn checks /debug/pprof is 404 by default and served after
// EnablePprof.
func TestPprofOptIn(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without opt-in: %d", resp.StatusCode)
	}

	w := kernelgen.Generate(kernelgen.Tiny())
	eng, _, err := core.Index(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	srv.EnablePprof()
	ts2 := httptest.NewServer(srv)
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index after EnablePprof: %d", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "goroutine") {
		t.Fatal("pprof index missing profile listing")
	}
}

// TestMetricsBypassesLimiter checks a saturated server still answers
// scrapes (shed returns 503 for API calls, /metrics stays 200).
func TestMetricsBypassesLimiter(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Tiny())
	eng, _, err := core.Index(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	srv.MaxConcurrent = 1
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Saturate the single slot with a request parked in a handler.
	release := make(chan struct{})
	blocked := make(chan struct{})
	srv.mux.HandleFunc("GET /test/block", func(rw http.ResponseWriter, r *http.Request) {
		close(blocked)
		<-release
	})
	go func() {
		resp, err := http.Get(ts.URL + "/test/block")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-blocked
	defer close(release)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape under saturation: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("API under saturation: %d, want 503", resp.StatusCode)
	}
}
