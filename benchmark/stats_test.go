package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.991, 100}} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := nearestRank([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("empty input should give NaN")
	}
}

// TestTailQuantileTenBeyond pins the p99 reporting rule: p99 is reported
// only when at least ten samples lie strictly above it.
func TestTailQuantileTenBeyond(t *testing.T) {
	if v, err := tailQuantile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("1000 samples: got %g, %v; want 990 with 10 beyond", v, err)
	}
	if _, err := tailQuantile(seq(999), 0.99); err == nil {
		t.Error("999 samples leave 9 beyond p99; want an error")
	}
	// Ties at the quantile do not count as beyond it.
	xs := seq(1000)
	for i := 985; i < 995; i++ {
		xs[i] = 990
	}
	if _, err := tailQuantile(xs, 0.99); err == nil {
		t.Errorf("ties leave %d beyond p99; want an error", beyond(xs, 0.99))
	}
}

func TestFailureUpperBound(t *testing.T) {
	for _, n := range []int{1, 10, 1000, 20000} {
		want := 1 - math.Pow(0.05, 1/float64(n))
		if got := failureUpperBound(0, n); math.Abs(got-want) > 1e-9 {
			t.Errorf("0 of %d: got %g, want %g", n, got, want)
		}
	}
	prev := 0.0
	for f := 0; f < 5; f++ {
		got := failureUpperBound(f, 10000)
		if got <= prev {
			t.Errorf("bound not increasing in failures: %d -> %g (prev %g)", f, got, prev)
		}
		prev = got
	}
	if got := failureUpperBound(3, 3); got != 1 {
		t.Errorf("all failed: got %g, want 1", got)
	}
}

func TestSummarizeSlices(t *testing.T) {
	// Four one-second slices with 4, 1, 3 and 2 completions; the faster
	// half is slices 0 and 2.
	var done, lat []float64
	add := func(slice, n int, ms float64) {
		for i := 0; i < n; i++ {
			done = append(done, float64(slice)+float64(i)/10)
			lat = append(lat, ms)
		}
	}
	add(0, 4, 1)
	add(1, 1, 9)
	add(2, 3, 2)
	add(3, 2, 8)
	done = append(done, 4.5) // after the window: left out
	lat = append(lat, 100)
	s := summarizeSlices(done, lat, 4)
	if want := []int{4, 1, 3, 2}; !equalInts(s.rates, want) {
		t.Fatalf("rates %v, want %v", s.rates, want)
	}
	if s.qps != 3.5 {
		t.Errorf("qps %g, want 3.5 (mean of the faster half)", s.qps)
	}
	if len(s.lat) != 7 || s.lat[0] != 1 || s.lat[6] != 2 {
		t.Errorf("latencies %v, want the 7 from slices 0 and 2", s.lat)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompareVerdictsRejectsPlantedVerdict checks the reference check: a
// planted wrong result, kind or reason is a mismatch (a wrong run), while a
// degrade to Maybe is a failure that counts in error_rate.
func TestCompareVerdictsRejectsPlantedVerdict(t *testing.T) {
	w := genS33()
	if err := answerAll(w.pool); err != nil {
		t.Fatal(err)
	}
	if err := checkS33(w); err != nil {
		t.Fatal(err)
	}
	want := w.pool[0].want
	plant := func(f func(v *verdict)) []verdict {
		got := append([]verdict(nil), want...)
		f(&got[0])
		return got
	}
	cases := []struct {
		name string
		got  []verdict
		kind failKind
	}{
		{"identical", append([]verdict(nil), want...), outcomeOK},
		{"result flipped", plant(func(v *verdict) { v.Result = "Yes" }), failMismatch},
		{"kind changed", plant(func(v *verdict) { v.Kind = "anti" }), failMismatch},
		{"reason changed", plant(func(v *verdict) { v.Reason += "!" }), failMismatch},
		{"degraded to Maybe", plant(func(v *verdict) { v.Result, v.Reason = "Maybe", "timeout" }), failDegraded},
		{"missing verdict", want[:1], failMismatch},
	}
	for _, c := range cases {
		if got := compareVerdicts(c.got, want); got != c.kind {
			t.Errorf("%s: got %v, want %v", c.name, got, c.kind)
		}
	}
}
