package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterMaxHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Add(1)
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	if r.Counter("c") != c {
		t.Error("Counter not idempotent")
	}

	m := r.Max("m")
	m.Observe(5)
	m.Observe(2)
	m.Observe(9)
	if m.Value() != 9 {
		t.Errorf("max = %d, want 9", m.Value())
	}

	h := r.Histogram("h")
	for _, v := range []int64{1, 2, 3, 100, -7} {
		h.Observe(v)
	}
	s := h.Summary()
	if s.Count != 5 || s.Sum != 106 || s.Min != 0 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 106.0/5 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.P50 > s.P99 || s.P99 > 127 {
		t.Errorf("quantiles p50=%d p99=%d", s.P50, s.P99)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != 8000 || s.Min != 0 || s.Max != 999 {
		t.Errorf("concurrent summary = %+v", s)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var set *Set
	var reg *Registry
	var tw *TraceWriter
	set.Counter("x").Add(1)
	set.Max("x").Observe(1)
	set.Histogram("x").Observe(1)
	set.Emit("ev", Int("a", 1))
	set.Begin("ev").Child("child").End(Int("a", 1))
	if set.Enabled() || set.TraceEnabled() {
		t.Error("nil set reports enabled")
	}
	if reg.Counter("x") != nil || reg.Max("x") != nil || reg.Histogram("x") != nil {
		t.Error("nil registry returned live instruments")
	}
	reg.PublishExpvar("never")
	tw.Emit("ev")
	New(nil, tw).Begin("ev").End()
	if tw.Err() != nil {
		t.Error("nil trace writer misbehaves")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestTraceWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Emit("plain")
	tw.Emit("attrs",
		String("s", `quote " and \ slash`),
		Int("i", -3),
		Int64("i64", 1<<40),
		Float64("f", 1.5),
		Float64("nan", nanFloat()),
		Bool("yes", true),
		Bool("no", false),
	)
	sp := New(nil, tw).Begin("span")
	sp.Child("child").End()
	time.Sleep(time.Millisecond)
	sp.End(String("k", "v"))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	var lastSeq float64
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, ln)
		}
		for _, k := range []string{"ts_us", "seq", "ev"} {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d missing %q", i, k)
			}
		}
		if seq := m["seq"].(float64); seq <= lastSeq {
			t.Errorf("seq not increasing: %v after %v", seq, lastSeq)
		} else {
			lastSeq = seq
		}
	}
	var attrs map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &attrs); err != nil {
		t.Fatal(err)
	}
	if attrs["s"] != `quote " and \ slash` || attrs["i"] != float64(-3) ||
		attrs["f"] != 1.5 || attrs["nan"] != nil || attrs["yes"] != true || attrs["no"] != false {
		t.Errorf("attr round-trip failed: %v", attrs)
	}
	var child, span map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &child); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[3]), &span); err != nil {
		t.Fatal(err)
	}
	if span["ev"] != "span" || span["k"] != "v" {
		t.Errorf("span event wrong: %v", span)
	}
	if dur, ok := span["dur_us"].(float64); !ok || dur < 500 {
		t.Errorf("span dur_us = %v, want ≥ 500µs", span["dur_us"])
	}
	if id, _ := span["span_id"].(string); len(id) != 16 || span["parent_id"] != nil {
		t.Errorf("root span ids = %v/%v, want a span_id and no parent_id", span["span_id"], span["parent_id"])
	}
	if child["ev"] != "child" || child["parent_id"] != span["span_id"] {
		t.Errorf("child span = %v, want parent_id %v", child, span["span_id"])
	}
}

func nanFloat() float64 {
	z := 0.0
	return z / z
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestTraceWriterErr(t *testing.T) {
	tw := NewTraceWriter(failWriter{})
	tw.Emit("ev")
	if tw.Err() == nil {
		t.Error("write error not recorded")
	}
}

func TestSnapshotWriteTextAndRatio(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Counter("lookups").Add(4)
	r.Max("depth").Observe(7)
	r.Histogram("q_ns").Observe(1500)
	snap := r.Snapshot()
	if rate, ok := snap.Ratio("hits", "lookups"); !ok || rate != 0.75 {
		t.Errorf("Ratio = %v %v", rate, ok)
	}
	if _, ok := snap.Ratio("hits", "absent"); ok {
		t.Error("Ratio with absent denominator reported ok")
	}
	var buf bytes.Buffer
	snap.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"hits", "lookups", "depth", "q_ns", "counters:", "maxima:", "histograms:"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q in:\n%s", want, out)
		}
	}
}

// summaryPhases returns the phase names a Phases.Summary table lists, in
// order: every row between the header line and the closing total.
func summaryPhases(summary string) []string {
	lines := strings.Split(strings.TrimSuffix(summary, "\n"), "\n")
	var names []string
	for _, l := range lines[1 : len(lines)-1] {
		names = append(names, strings.Fields(l)[0])
	}
	return names
}

func TestPhases(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	tel := New(reg, NewTraceWriter(&buf))
	ph := NewPhases(tel)
	if err := ph.Run("parse", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("boom")
	if err := ph.Run("analyze", func() error { return wantErr }); err != wantErr {
		t.Fatalf("error not propagated: %v", err)
	}
	if got := summaryPhases(ph.Summary()); len(got) != 2 || got[0] != "parse" {
		t.Errorf("timings = %v", got)
	}
	if !strings.Contains(ph.Summary(), "parse") || !strings.Contains(ph.Summary(), "total") {
		t.Errorf("summary = %q", ph.Summary())
	}
	if !strings.Contains(buf.String(), `"phase":"analyze"`) {
		t.Errorf("trace missing phase event: %s", buf.String())
	}
	if reg.Snapshot().Hists["pipeline.parse_ns"].Count != 1 {
		t.Error("phase histogram not recorded")
	}

	// A nil-telemetry Phases still records timings.
	ph2 := NewPhases(nil)
	_ = ph2.Run("x", func() error { return nil })
	if got := summaryPhases(ph2.Summary()); len(got) != 1 {
		t.Error("nil-telemetry phases lost timing")
	}
}

// disabledHotPath is the exact call pattern instrumented hot paths use when
// telemetry is off: pre-resolved nil instruments, a TraceEnabled guard, and
// zero Spans — from the Set and from a context that carries none — ended
// with attributes.
func disabledHotPath(ctx context.Context, tel *Set, c *Counter, m *Max, h *Histogram) {
	c.Add(1)
	m.Observe(42)
	h.Observe(1234)
	tel.Emit("event")
	if tel.TraceEnabled() {
		tel.Emit("expensive", String("goal", "never built"))
	}
	tel.Begin("span").End(String("theorem", "t"), Int("steps", 3))
	parent := SpanFromContext(ctx)
	parent.Child("child").End(Bool("cached", true))
	parent.RequestTrace().NoteDegraded(DegradeQueryTimeout)
}

func TestTelemetryDisabledAllocs(t *testing.T) {
	var tel *Set
	c, m, h := tel.Counter("c"), tel.Max("m"), tel.Histogram("h")
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		disabledHotPath(ctx, tel, c, m, h)
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry path allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkTelemetryDisabled measures the no-op path; the acceptance
// criterion is 0 allocs/op (run with -benchmem or check the test above).
func BenchmarkTelemetryDisabled(b *testing.B) {
	var tel *Set
	c, m, h := tel.Counter("c"), tel.Max("m"), tel.Histogram("h")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disabledHotPath(ctx, tel, c, m, h)
	}
}

// BenchmarkTelemetryEnabledCounters is the comparison point: live atomic
// instruments without tracing.
func BenchmarkTelemetryEnabledCounters(b *testing.B) {
	reg := NewRegistry()
	tel := New(reg, nil)
	c, m, h := tel.Counter("c"), tel.Max("m"), tel.Histogram("h")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disabledHotPath(ctx, tel, c, m, h)
	}
}
