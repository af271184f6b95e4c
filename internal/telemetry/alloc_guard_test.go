//go:build !race

package telemetry

import (
	"context"
	"testing"
	"time"
)

// TestDisabledObservabilityAllocations is the allocation-regression guard
// for the "nil is off" discipline: with tracing disabled (zero Spans)
// and the flight recorder's floor above the request, the per-query and
// per-request hot paths must not allocate at all.  Gated out under the race
// detector, whose instrumentation adds allocations of its own.
func TestDisabledObservabilityAllocations(t *testing.T) {
	var rt *RequestTrace
	if got := testing.AllocsPerRun(200, func() {
		sp := rt.Begin("serve.request")
		sp.Child("engine.worker").End(Int("queries", 1))
		sp.End()
	}); got > 0 {
		t.Errorf("nil RequestTrace Begin/Child/End allocates %.1f per call, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		rt.NoteDegraded(DegradeQueryTimeout)
	}); got > 0 {
		t.Errorf("nil RequestTrace NoteDegraded allocates %.1f per call, want 0", got)
	}

	ctx := context.Background()
	if got := testing.AllocsPerRun(200, func() {
		sp := SpanFromContext(ctx)
		if sp.RequestTrace() != nil {
			t.Fatal("bare context carries a request trace")
		}
		sp.RequestTrace().NoteDegraded(DegradeCanceled)
	}); got > 0 {
		t.Errorf("SpanFromContext on a bare context allocates %.1f per call, want 0", got)
	}

	// Flight recorder fast path: non-degraded requests below the floor
	// must return before touching the build callback or any lock.
	f := NewFlightRecorder(1, 8)
	f.Record(time.Second, false, func() *FlightRecord { return &FlightRecord{} })
	if got := testing.AllocsPerRun(200, func() {
		f.Record(time.Microsecond, false, func() *FlightRecord {
			t.Fatal("fast path invoked build")
			return nil
		})
	}); got > 0 {
		t.Errorf("flight-recorder fast path allocates %.1f per call, want 0", got)
	}
	var nilF *FlightRecorder
	if got := testing.AllocsPerRun(200, func() {
		nilF.Record(time.Hour, true, func() *FlightRecord { return &FlightRecord{} })
	}); got > 0 {
		t.Errorf("nil FlightRecorder Record allocates %.1f per call, want 0", got)
	}

	// Window histogram writes are two atomic stores — no allocation even
	// when enabled.
	w := NewWindowHistogram()
	if got := testing.AllocsPerRun(200, func() {
		w.Observe(123)
	}); got > 0 {
		t.Errorf("WindowHistogram.Observe allocates %.1f per call, want 0", got)
	}
	var nilW *WindowHistogram
	if got := testing.AllocsPerRun(200, func() {
		nilW.Observe(123)
	}); got > 0 {
		t.Errorf("nil WindowHistogram.Observe allocates %.1f per call, want 0", got)
	}
}
