package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestWindowHistogramQuantiles(t *testing.T) {
	h := NewWindowHistogram()
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Summary(DefaultWindow)
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	// Nearest rank over 1..100: p50 = 50th value = 50, p95 = 95, p99 = 99.
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 || s.Max != 100 {
		t.Errorf("summary = %+v, want p50=50 p95=95 p99=99 max=100", s)
	}
	if s.WindowMS != DefaultWindow.Milliseconds() {
		t.Errorf("window_ms = %d", s.WindowMS)
	}
}

func TestWindowHistogramSingleSample(t *testing.T) {
	h := NewWindowHistogram()
	h.Observe(42)
	s := h.Summary(DefaultWindow)
	if s.Count != 1 || s.P50 != 42 || s.P99 != 42 || s.Max != 42 {
		t.Errorf("summary = %+v, want every quantile = the one sample", s)
	}
}

func TestWindowHistogramExpiry(t *testing.T) {
	h := NewWindowHistogram()
	h.Observe(1000)
	time.Sleep(30 * time.Millisecond)
	h.Observe(5)
	// A 10ms window holds only the recent sample.
	s := h.Summary(10 * time.Millisecond)
	if s.Count != 1 || s.Max != 5 {
		t.Errorf("summary = %+v, want only the recent sample", s)
	}
	// A wide window still sees both.
	if s := h.Summary(time.Minute); s.Count != 2 || s.Max != 1000 {
		t.Errorf("wide summary = %+v, want both samples", s)
	}
}

func TestWindowHistogramWrap(t *testing.T) {
	h := NewWindowHistogram()
	for i := 0; i < windowCapacity+500; i++ {
		h.Observe(7)
	}
	s := h.Summary(DefaultWindow)
	if s.Count != windowCapacity {
		t.Errorf("count = %d, want the ring capacity %d", s.Count, windowCapacity)
	}
}

func TestWindowHistogramNilAndEmpty(t *testing.T) {
	var h *WindowHistogram
	h.Observe(1) // must not panic
	h.Observe(time.Second.Nanoseconds())
	if s := h.Summary(DefaultWindow); s.Count != 0 || s.P99 != 0 {
		t.Errorf("nil summary = %+v", s)
	}
	if s := NewWindowHistogram().Summary(DefaultWindow); s.Count != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

// Concurrent writers against a reader: the lock-free ring must stay
// race-clean (exercised by `go test -race`) and every summary must stay
// inside the observed value range.
func TestWindowHistogramConcurrent(t *testing.T) {
	h := NewWindowHistogram()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h.Observe(int64(1 + i%100))
			}
		}(w)
	}
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Summary(DefaultWindow)
				if s.Count > 0 && (s.P50 < 1 || s.Max > 100) {
					t.Errorf("summary outside observed range: %+v", s)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	if s := h.Summary(DefaultWindow); s.Count == 0 {
		t.Error("no samples visible after concurrent writes")
	}
}

func TestRegistryWindowInSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Window("query_ns").Observe(1500)
	r.Window("query_ns").Observe(2500)
	snap := r.Snapshot()
	w, ok := snap.Windows["query_ns"]
	if !ok {
		t.Fatalf("snapshot lacks the window (have %v)", snap.Windows)
	}
	if w.Count != 2 || w.Max != 2500 {
		t.Errorf("window summary = %+v", w)
	}
	if r.Window("query_ns") != r.Window("query_ns") {
		t.Error("Window is not idempotent per name")
	}
}

// TestNearestRankAgainstBruteForce is the regression property test for the
// float-arithmetic rank bug: for every population size up to the ring
// capacity and each quantile the summary publishes, the selected value must
// equal the brute-force nearest-rank definition — the smallest rank r with
// r·10⁴ ≥ n·(q·10⁴).  The old ⌈q·n⌉-via-float version violated this at
// exact multiples (q=0.50 with even n) when the product rounded up a ulp.
func TestNearestRankAgainstBruteForce(t *testing.T) {
	quantiles := []struct {
		q   float64
		num int64 // q scaled to the rational numerator over 10⁴
	}{
		{0.50, 5000},
		{0.95, 9500},
		{0.99, 9900},
	}
	for n := 1; n <= 4096; n++ {
		// sorted[i] = i+1, so sorted[r-1] == r: the selected value IS the rank.
		sorted := make([]int64, n)
		for i := range sorted {
			sorted[i] = int64(i + 1)
		}
		for _, qc := range quantiles {
			want := int64(1)
			for want*10000 < int64(n)*qc.num {
				want++
			}
			if got := nearestRank(sorted, qc.q); got != want {
				t.Fatalf("nearestRank(n=%d, q=%g) = %d, brute force says %d", n, qc.q, got, want)
			}
		}
	}
}
