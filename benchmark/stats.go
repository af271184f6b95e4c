package main

import (
	"fmt"
	"math"
	"sort"
)

// nearestRank returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank method: the smallest sample with at least q of the samples
// at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// minBeyond is how many samples must lie strictly above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// beyond counts the samples of sorted strictly above its q-quantile.
func beyond(sorted []float64, q float64) int {
	v := nearestRank(sorted, q)
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return len(sorted) - i
}

// tailQuantile returns the q-quantile, or an error when fewer than
// minBeyond samples lie beyond it.
func tailQuantile(sorted []float64, q float64) (float64, error) {
	if n := beyond(sorted, q); n < minBeyond {
		return 0, fmt.Errorf("only %d of %d samples beyond p%g; need %d", n, len(sorted), 100*q, minBeyond)
	}
	return nearestRank(sorted, q), nil
}

// median of unsorted values (nearest rank), leaving xs untouched.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 0.5)
}

// slices summarizes a measured window cut into one-second slices.
type slices struct {
	// rates is the OK completions of each slice.
	rates []int
	// qps is the mean rate of the faster half of the slices.
	qps float64
	// lat holds, sorted, the latencies of requests completed in the faster
	// half of the slices.
	lat []float64
}

// summarizeSlices cuts a window of n one-second slices by completion time
// (doneS, seconds into the window; completions after the last slice are
// left out) and reports from the faster half: the ceil(n/2) slices with
// the most completions, ties going to the earlier slice.  Other tenants of
// a shared host only ever slow a slice down, so the faster half estimates
// the system's own speed, and a disturbance covering less than half the
// window does not move the figures.
func summarizeSlices(doneS, latMS []float64, n int) slices {
	s := slices{rates: make([]int, n)}
	for _, d := range doneS {
		if i := int(d); i >= 0 && i < n {
			s.rates[i]++
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s.rates[order[a]] > s.rates[order[b]] })
	fast := make([]bool, n)
	sum := 0
	for _, i := range order[:(n+1)/2] {
		fast[i] = true
		sum += s.rates[i]
	}
	s.qps = float64(sum) / float64((n+1)/2)
	for i, d := range doneS {
		if j := int(d); j >= 0 && j < n && fast[j] {
			s.lat = append(s.lat, latMS[i])
		}
	}
	sort.Float64s(s.lat)
	return s
}

// failureUpperBound is the exact (Clopper-Pearson) one-sided 95% upper
// confidence bound on a failure probability after failed of attempted
// requests failed.  With no failures it is 1-0.05^(1/n), about 3/n — never
// 0, so a regression bound on it is well defined, and a single new failure
// moves it by about half.
func failureUpperBound(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	if failed >= attempted {
		return 1
	}
	const alpha = 0.05
	// P(X <= failed; n, p) falls monotonically in p; bisect for alpha.
	lo, hi := float64(failed)/float64(attempted), 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if binomCDF(failed, attempted, mid) > alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// binomCDF is P(X <= k) for X ~ Binomial(n, p), summed in log space.
func binomCDF(k, n int, p float64) float64 {
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	lp, lq := math.Log(p), math.Log1p(-p)
	ln, _ := math.Lgamma(float64(n + 1))
	sum := 0.0
	for i := 0; i <= k; i++ {
		li, _ := math.Lgamma(float64(i + 1))
		lni, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(ln - li - lni + float64(i)*lp + float64(n-i)*lq)
	}
	return sum
}

// failKind classifies one request's outcome.  Every failure is exactly one
// kind; ok and mismatch are not failures of the transport.
type failKind int

const (
	outcomeOK       failKind = iota
	failTransport            // no HTTP response at all
	failStatus               // any non-200, including 429 shed and 5xx
	failUndecodable          // 200 whose body is not a batch response
	failDegraded             // a verdict degraded to Maybe against the reference
	failMismatch             // a verdict that differs otherwise: the run is wrong
	numFailKinds
)

var failNames = [numFailKinds]string{"ok", "transport", "status", "undecodable", "degraded", "mismatch"}

func (k failKind) String() string { return failNames[k] }

// tally accumulates request outcomes.
type tally struct {
	attempted int
	byKind    [numFailKinds]int
}

func (t *tally) add(k failKind) {
	t.attempted++
	t.byKind[k]++
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	for i := range t.byKind {
		t.byKind[i] += o.byKind[i]
	}
}

// failed counts every request that did not return the reference verdicts.
func (t *tally) failed() int { return t.attempted - t.byKind[outcomeOK] }

// correct reports whether no verdict contradicted the reference (a degrade
// to Maybe is a failure, not a wrong answer).
func (t *tally) correct() bool { return t.byKind[failMismatch] == 0 }

func (t *tally) counts() map[string]int {
	m := map[string]int{}
	for k, n := range t.byKind {
		m[failNames[k]] = n
	}
	return m
}

// compareVerdicts checks a decoded response's verdicts against the
// reference.  A served Maybe where the reference is definite is a degrade;
// any other difference — result, kind or reason — is a mismatch.
func compareVerdicts(got, want []verdict) failKind {
	if len(got) != len(want) {
		return failMismatch
	}
	kind := outcomeOK
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		if got[i].Result == "Maybe" && want[i].Result != "Maybe" {
			kind = failDegraded
			continue
		}
		return failMismatch
	}
	return kind
}
