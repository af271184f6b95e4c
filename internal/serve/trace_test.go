package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// postBatchTraced posts one batch with a client traceparent and returns the
// response, decoded body, and the traceparent header the server answered
// with.
func postBatchTraced(t *testing.T, url, traceparent string, req wire.BatchRequest) (*http.Response, *wire.BatchResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br wire.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp, &br, resp.Header.Get("traceparent")
}

// TestTraceparentRoundTrip is the tentpole's correlation check: a request
// carrying a W3C traceparent joins that trace, answers with its own root
// span under the caller's span, and the flight recorder retains a span
// tree — serve admission, analysis, the engine batch, its workers, and the
// prover's per-query spans — that parents correctly all the way down.
func TestTraceparentRoundTrip(t *testing.T) {
	const client = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, br, echoed := postBatchTraced(t, ts.URL, client, wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	// The response header continues the client's trace under a fresh span.
	tc, ok := telemetry.ParseTraceparent(echoed)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echoed)
	}
	if got := tc.TraceID.String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("response trace id = %s, want the client's", got)
	}
	if tc.SpanID.String() == "b7ad6b7169203331" {
		t.Error("response span id echoes the client's span; want the server's root span")
	}
	if br.Stats.TraceID != tc.TraceID.String() {
		t.Errorf("stats.trace_id = %q, want %q", br.Stats.TraceID, tc.TraceID.String())
	}

	// The first request is by definition among the K slowest, so the
	// recorder has its span tree.
	snap := srv.FlightSnapshot()
	if len(snap.Slowest) != 1 {
		t.Fatalf("flight recorder holds %d slow records, want 1", len(snap.Slowest))
	}
	rec := snap.Slowest[0]
	if rec.TraceID != tc.TraceID.String() {
		t.Errorf("flight record trace id = %q, want %q", rec.TraceID, tc.TraceID.String())
	}
	if rec.Traceparent != echoed {
		t.Errorf("flight record traceparent = %q, want %q", rec.Traceparent, echoed)
	}

	byName := checkSpanTree(t, rec.Spans, "serve.analyze", "prover.prove")
	root := byName["serve.request"][0]
	if root.Parent != "b7ad6b7169203331" {
		t.Errorf("root span parent = %q, want the client's span id", root.Parent)
	}
	if root.ID != tc.SpanID.String() {
		t.Errorf("root span id = %s, but the response header says %s", root.ID, tc.SpanID.String())
	}

	// A headerless (or malformed) request gets a freshly minted trace.
	_, _, minted := postBatchTraced(t, ts.URL, "garbage", wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"},
	})
	mtc, ok := telemetry.ParseTraceparent(minted)
	if !ok {
		t.Fatalf("minted traceparent %q does not parse", minted)
	}
	if mtc.TraceID == tc.TraceID {
		t.Error("fresh request reused the previous trace id")
	}
}

// TestMetricsPrometheusExposition: /metrics must parse as Prometheus text
// exposition and carry the registry's instruments, the server families,
// the per-reason degraded counters, and the per-axiom-set families.
func TestMetricsPrometheusExposition(t *testing.T) {
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	srv := New(Config{Telemetry: tel})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, br := postBatch(t, ts.URL, wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"},
	}); len(br.Results) == 0 {
		t.Fatal("no results")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidatePrometheus(data); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, data)
	}
	for _, want := range []string{
		"apt_serve_requests_total 1",
		"apt_engine_queries_total",
		"apt_serve_request_ns_bucket{le=\"+Inf\"}",
		"apt_serve_request_ns_window{quantile=\"0.99\"}",
		`apt_degraded_total{reason="query_timeout"}`,
		`apt_degraded_total{reason="request_deadline"}`,
		`apt_degraded_total{reason="canceled"}`,
		"apt_engine_set_queries_total{axiom_set=",
		"apt_server_accepted_total 1",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Telemetry disabled: the server-level families still expose and still
	// validate.
	srv2 := New(Config{})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err := telemetry.ValidatePrometheus(data2); err != nil {
		t.Fatalf("nil-telemetry /metrics invalid: %v\n%s", err, data2)
	}
	if !strings.Contains(string(data2), "apt_server_inflight 0") {
		t.Error("nil-telemetry /metrics lacks server families")
	}
}

// syncBuffer lets the test read the access log while the server may still
// be writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogJSONL: every HTTP request — batch, metrics scrape, bad
// method — produces one structured JSONL line with method, path, status,
// and the response traceparent.
func TestAccessLogJSONL(t *testing.T) {
	var buf syncBuffer
	srv := New(Config{AccessLog: telemetry.NewTraceWriter(&buf)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, br := postBatch(t, ts.URL, wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"},
	}); len(br.Results) == 0 {
		t.Fatal("no results")
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/batch"); err != nil { // wrong method
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	type line struct {
		Ev          string `json:"ev"`
		Method      string `json:"method"`
		Path        string `json:"path"`
		Status      int    `json:"status"`
		Bytes       int64  `json:"bytes"`
		DurUS       int64  `json:"dur_us"`
		Traceparent string `json:"traceparent"`
	}
	var lines []line
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("access log line %q: %v", raw, err)
		}
		if l.Ev != "http_access" {
			t.Errorf("line event = %q, want http_access", l.Ev)
		}
		lines = append(lines, l)
	}
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if l := lines[0]; l.Method != "POST" || l.Path != "/v1/batch" || l.Status != 200 || l.Bytes == 0 {
		t.Errorf("batch line = %+v", l)
	}
	if _, ok := telemetry.ParseTraceparent(lines[0].Traceparent); !ok {
		t.Errorf("batch line traceparent %q does not parse", lines[0].Traceparent)
	}
	if l := lines[1]; l.Method != "GET" || l.Path != "/healthz" || l.Status != 200 {
		t.Errorf("healthz line = %+v", l)
	}
	if l := lines[2]; l.Status != http.StatusMethodNotAllowed {
		t.Errorf("bad-method line = %+v, want 405", l)
	}
}

// TestDegradedRequestCaptured: a request whose deadline expires mid-batch
// is degraded toward Maybe, counted as a degraded request, and retained by
// the flight recorder with its per-reason profile.  A 1ms deadline against
// a cold proof search plus 4000 repeat queries (each a memo lookup, ~µs
// apiece) expires mid-batch with a wide margin, but the loop still
// tolerates an absurdly fast machine by retrying on fresh servers.
func TestDegradedRequestCaptured(t *testing.T) {
	lines := make([]string, 4000)
	for i := range lines {
		lines[i] = "between S T"
	}
	req := wire.BatchRequest{
		Program: treeProgram(t), Fn: "subr",
		Queries:    lines,
		DeadlineMS: 1,
	}
	for attempt := 0; attempt < 25; attempt++ {
		srv := New(Config{Workers: 2})
		ts := httptest.NewServer(srv)
		resp, br := postBatch(t, ts.URL, req)
		snap := srv.FlightSnapshot()
		z := srv.StatzSnapshot()
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if br.Stats.DegradedQueries == 0 {
			continue // the search beat the deadline; try again cold
		}
		// Degraded: all the books must agree.
		if br.Stats.DeadlineExpired == 0 {
			t.Errorf("degraded_queries = %d but deadline_expired = 0: %+v",
				br.Stats.DegradedQueries, br.Stats)
		}
		if z.DegradedRequests != 1 {
			t.Errorf("statz degraded_requests = %d, want 1", z.DegradedRequests)
		}
		if snap.DegradedRecorded != 1 || len(snap.Degraded) != 1 {
			t.Fatalf("flight recorder degraded: recorded %d, held %d, want 1/1",
				snap.DegradedRecorded, len(snap.Degraded))
		}
		rec := snap.Degraded[0]
		if rec.DegradedRequestDeadline != br.Stats.DeadlineExpired {
			t.Errorf("record deadline count = %d, response says %d",
				rec.DegradedRequestDeadline, br.Stats.DeadlineExpired)
		}
		if !rec.Degraded() || len(rec.Spans) == 0 || rec.TraceID == "" {
			t.Errorf("degraded record incomplete: %+v", rec)
		}
		return
	}
	t.Skip("deadline never expired in 25 cold attempts; machine too fast for a timing-based check")
}

// checkSpanTree checks the shape of one /v1/batch span tree and returns its
// spans by name.  The request, admission, preparation (prep: serve.analyze
// or serve.rawparse) and batch spans and an engine worker must be present,
// as must every name in extra.  Admission, preparation and batch parent
// under the root; workers under the batch; prover spans under a worker.
func checkSpanTree(t *testing.T, spans []telemetry.SpanRecord, prep string, extra ...string) map[string][]telemetry.SpanRecord {
	t.Helper()
	byName := map[string][]telemetry.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, want := range append([]string{"serve.request", "serve.admission", prep, "serve.batch", "engine.worker"}, extra...) {
		if len(byName[want]) == 0 {
			t.Fatalf("span %q missing from tree (have %d spans)", want, len(spans))
		}
	}
	root := byName["serve.request"][0]
	for _, name := range []string{"serve.admission", prep, "serve.batch"} {
		for _, sp := range byName[name] {
			if sp.Parent != root.ID {
				t.Errorf("%s parented under %q, want the root span %q", name, sp.Parent, root.ID)
			}
		}
	}
	batch := byName["serve.batch"][0]
	for _, sp := range byName["engine.worker"] {
		if sp.Parent != batch.ID {
			t.Errorf("engine.worker parented under %q, want serve.batch %q", sp.Parent, batch.ID)
		}
	}
	workers := map[string]bool{}
	for _, sp := range byName["engine.worker"] {
		workers[sp.ID] = true
	}
	for _, sp := range byName["prover.prove"] {
		if !workers[sp.Parent] {
			t.Errorf("prover.prove parented under %q, not any engine.worker span", sp.Parent)
		}
	}
	return byName
}

// TestPreparedHitSpanTree: a request answered from the prepared cache still
// emits its preparation span — serve.analyze in program mode, serve.rawparse
// in raw mode — marked cached=true, so the span tree keeps the shape
// TestTraceparentRoundTrip checks.  The two misses before it say
// cached=false.
func TestPreparedHitSpanTree(t *testing.T) {
	srv := New(Config{Workers: 2, FlightK: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, tc := range []struct {
		prep string
		req  wire.BatchRequest
	}{
		{"serve.analyze", wire.BatchRequest{Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"}}},
		{"serve.rawparse", rawTreeRequest()},
	} {
		var traces []string
		for i := 0; i < 3; i++ {
			tc0 := telemetry.NewTraceContext()
			resp, _, _ := postBatchTraced(t, ts.URL, tc0.Traceparent(), tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s send %d: status = %d", tc.prep, i, resp.StatusCode)
			}
			traces = append(traces, tc0.TraceID.String())
		}
		records := map[string]*telemetry.FlightRecord{}
		for _, rec := range srv.FlightSnapshot().Slowest {
			records[rec.TraceID] = rec
		}
		for i, id := range traces {
			rec, ok := records[id]
			if !ok {
				t.Fatalf("%s send %d: no flight record for trace %s", tc.prep, i, id)
			}
			byName := checkSpanTree(t, rec.Spans, tc.prep)
			wantCached := i == 2
			if got := byName[tc.prep][0].Attrs["cached"]; got != wantCached {
				t.Errorf("%s send %d: cached = %v, want %v", tc.prep, i, got, wantCached)
			}
		}
	}
}
