package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// The cumulative Histogram answers "since boot"; a WindowHistogram answers
// "lately".  A long-lived server's p99 since boot is dominated by its
// cold-start tail, which is exactly the number a dashboard must NOT show
// when asking "why did this degrade just now" — so /metrics exposes both.

// DefaultWindow is the sliding window Summary and Registry snapshots use.
const DefaultWindow = time.Minute

// windowCapacity is the sample ring size.  4096 recent samples bound both
// memory and the sort cost of a quantile query while keeping p99 over a
// one-minute window exact for up to ~68 requests/sec.
const windowCapacity = 4096

// windowSample is one ring slot: the observation and when it happened
// (nanoseconds since the histogram started, +1 so zero means "empty").
// The two fields are stored with separate atomics: a torn read can pair a
// fresh timestamp with a stale value, which at worst counts one old sample
// into the window — acceptable for quantile estimates and the price of a
// lock-free write path.
type windowSample struct {
	atNS atomic.Int64
	v    atomic.Int64
}

// WindowHistogram records recent observations in a lock-free ring and
// reports exact sample quantiles over a sliding time window.  Writes are
// two atomic stores and never allocate; quantile queries copy and sort the
// live window.  A nil *WindowHistogram is a valid no-op instrument.
type WindowHistogram struct {
	start   time.Time
	next    atomic.Uint64
	samples [windowCapacity]windowSample
}

// NewWindowHistogram returns an empty sliding-window histogram.
func NewWindowHistogram() *WindowHistogram {
	return &WindowHistogram{start: time.Now()}
}

// Observe records one value (negative values clamp to 0).
func (h *WindowHistogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	s := &h.samples[(h.next.Add(1)-1)%windowCapacity]
	s.v.Store(v)
	s.atNS.Store(time.Since(h.start).Nanoseconds() + 1)
}

// WindowSummary is a point-in-time digest of the observations inside the
// window: exact nearest-rank sample quantiles, not bucket bounds.
type WindowSummary struct {
	WindowMS int64 `json:"window_ms"`
	Count    int64 `json:"count"`
	P50      int64 `json:"p50"`
	P95      int64 `json:"p95"`
	P99      int64 `json:"p99"`
	Max      int64 `json:"max"`
}

// Summary digests the samples observed within the trailing window
// (zero value for a nil or empty histogram).
func (h *WindowHistogram) Summary(window time.Duration) WindowSummary {
	if window <= 0 {
		window = DefaultWindow
	}
	out := WindowSummary{WindowMS: window.Milliseconds()}
	if h == nil {
		return out
	}
	cutoff := time.Since(h.start).Nanoseconds() - window.Nanoseconds()
	n := h.next.Load()
	if n > windowCapacity {
		n = windowCapacity
	}
	vs := make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		s := &h.samples[i]
		if at := s.atNS.Load(); at > 0 && at-1 >= cutoff {
			vs = append(vs, s.v.Load())
		}
	}
	if len(vs) == 0 {
		return out
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out.Count = int64(len(vs))
	out.P50 = nearestRank(vs, 0.50)
	out.P95 = nearestRank(vs, 0.95)
	out.P99 = nearestRank(vs, 0.99)
	out.Max = vs[len(vs)-1]
	return out
}

// nearestRank returns the q-quantile of sorted by the nearest-rank method:
// the smallest value with at least ⌈q·n⌉ samples at or below it.  The rank
// is computed in exact integer arithmetic — q scaled to a rational over
// 10⁴ (quantiles here are specified to at most four decimals) — because
// the float truncate-then-compare version was one representation error
// away from an off-by-one rank at exact multiples like q=0.50, n even.
func nearestRank(sorted []int64, q float64) int64 {
	n := int64(len(sorted))
	num := int64(math.Round(q * 1e4))
	rank := (n*num + 9999) / 10000
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
