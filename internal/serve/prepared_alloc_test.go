//go:build !race

package serve

import "testing"

// TestPreparedHitAllocationBudget is the allocation-regression guard for the
// prepared-request hit path: an s33-warm body answered from the prepared
// cache and the warm proof memo, measured through the whole in-process
// ServeHTTP.  The budget is the measured count plus 10%.  Gated out under
// the race detector, whose instrumentation adds allocations of its own.
func TestPreparedHitAllocationBudget(t *testing.T) {
	const budget = 93 // 85 measured (go1.24, linux/amd64) + 10%
	serve := s33HitRequest(t)
	got := testing.AllocsPerRun(200, serve)
	t.Logf("prepared-hit ServeHTTP allocates %.1f per request", got)
	if got > budget {
		t.Errorf("prepared-hit ServeHTTP allocates %.1f per request, budget %d", got, budget)
	}
}
