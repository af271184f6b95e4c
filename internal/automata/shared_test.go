package automata

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pathexpr"
)

func sharedTestExprs() []pathexpr.Expr {
	srcs := []string{"L", "R", "N", "L.R", "(L|R)", "(L|R)+", "N*", "L.(L|R)*", "(L|R|N)+", "ε"}
	out := make([]pathexpr.Expr, len(srcs))
	for i, s := range srcs {
		out[i] = pathexpr.MustParse(s)
	}
	return out
}

// TestSharedCacheMatchesPrivateCache: the cache's memoized language
// decisions must equal the decisions computed directly on freshly compiled,
// minimized DFAs under the same state budget — on the first (computing) and
// the second (memo-answered) ask alike.
func TestSharedCacheMatchesPrivateCache(t *testing.T) {
	alpha := NewAlphabet("L", "R", "N")
	shared := NewSharedCache(0, 0, 0)
	exprs := sharedTestExprs()
	direct := func(e pathexpr.Expr) *DFA {
		d, err := CompileLimit(e, alpha, DefaultStateLimit)
		if err != nil {
			t.Fatalf("CompileLimit(%v): %v", e, err)
		}
		return d.Minimize()
	}
	for _, x := range exprs {
		for _, y := range exprs {
			dx, dy := direct(x), direct(y)
			for _, op := range []struct {
				name   string
				cached func() (bool, error)
				direct func() (bool, error)
			}{
				{"Includes",
					func() (bool, error) { return shared.Includes(x, y, alpha) },
					func() (bool, error) { return dx.IncludesLimit(dy, DefaultStateLimit) }},
				{"Disjoint",
					func() (bool, error) { return shared.Disjoint(x, y, alpha) },
					func() (bool, error) {
						prod, err := dx.IntersectLimit(dy, DefaultStateLimit)
						if err != nil {
							return false, err
						}
						return prod.IsEmpty(), nil
					}},
				{"Equivalent",
					func() (bool, error) { return shared.Equivalent(x, y, alpha) },
					func() (bool, error) { return dx.EquivalentLimit(dy, DefaultStateLimit) }},
			} {
				wantOK, wantErr := op.direct()
				for pass := 0; pass < 2; pass++ {
					gotOK, gotErr := op.cached()
					if wantOK != gotOK || (wantErr == nil) != (gotErr == nil) {
						t.Errorf("%s(%v, %v) pass %d: cache says (%v,%v), direct says (%v,%v)",
							op.name, x, y, pass, gotOK, gotErr, wantOK, wantErr)
					}
				}
			}
		}
	}
	if _, hits := shared.DecisionStats(); hits == 0 {
		t.Error("second asks never hit the decision memo")
	}
}

// TestSharedCacheDisableMinimize: the minimization ablation leaves every
// compiled DFA at its subset-construction size, and decisions unchanged.
func TestSharedCacheDisableMinimize(t *testing.T) {
	alpha := NewAlphabet("L", "R", "N")
	plain := NewSharedCache(0, 1, 0)
	raw := NewSharedCache(0, 1, 0).DisableMinimize()
	exprs := sharedTestExprs()
	for _, x := range exprs {
		for _, y := range exprs {
			want, err1 := plain.Includes(x, y, alpha)
			got, err2 := raw.Includes(x, y, alpha)
			if want != got || err1 != nil || err2 != nil {
				t.Errorf("Includes(%v, %v): unminimized (%v,%v), minimized (%v,%v)", x, y, got, err2, want, err1)
			}
		}
	}
	if st := raw.Stats(); st.StatesMinimized != st.StatesBuilt {
		t.Errorf("DisableMinimize: %d states after minimization, %d built; want equal", st.StatesMinimized, st.StatesBuilt)
	}
	if st := plain.Stats(); st.StatesMinimized >= st.StatesBuilt {
		t.Errorf("default cache saved no states: %d built, %d minimized", st.StatesBuilt, st.StatesMinimized)
	}
}

// TestSharedCacheConcurrentLookups hammers one cache from many goroutines;
// correctness is checked by the decisions and the race detector, economy by
// the compile counter staying near the distinct-key count.
func TestSharedCacheConcurrentLookups(t *testing.T) {
	alpha := NewAlphabet("L", "R", "N")
	c := NewSharedCache(0, 4, 0)
	exprs := sharedTestExprs()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for _, e := range exprs {
					d, err := c.DFA(e, alpha)
					if err != nil || d == nil {
						errs <- fmt.Errorf("DFA(%v): %v", e, err)
						return
					}
				}
			}
			ok, err := c.Disjoint(pathexpr.MustParse("L"), pathexpr.MustParse("R"), alpha)
			if err != nil || !ok {
				errs <- fmt.Errorf("Disjoint(L,R) = %v, %v", ok, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Lookups == 0 || st.Hits == 0 {
		t.Fatalf("stats show no traffic: %+v", st)
	}
	// Racing goroutines may compile the same key more than once (benign),
	// but steady-state reuse must dominate: far fewer compiles than lookups.
	if st.Compiles >= st.Lookups/10 {
		t.Errorf("%d compiles for %d lookups: cache not absorbing repeat traffic", st.Compiles, st.Lookups)
	}
	if c.Len() == 0 || c.Len() > len(exprs)+2 {
		t.Errorf("Len() = %d, want about %d distinct entries", c.Len(), len(exprs))
	}
	if c.HitRate() <= 0.5 {
		t.Errorf("HitRate() = %.2f, want > 0.5", c.HitRate())
	}
}

// TestSharedCacheEpochEviction: a full shard is emptied before the next
// insert and every dropped entry is counted.
func TestSharedCacheEpochEviction(t *testing.T) {
	alpha := NewAlphabet("L", "R", "N")
	c := NewSharedCache(0, 1, 4) // one shard, four entries
	exprs := sharedTestExprs()
	for _, e := range exprs {
		if _, err := c.DFA(e, alpha); err != nil {
			t.Fatalf("DFA(%v): %v", e, err)
		}
	}
	if c.Evictions() == 0 {
		t.Errorf("no evictions after inserting %d entries into a 4-entry shard", len(exprs))
	}
	if got := c.Len(); got > 4 {
		t.Errorf("Len() = %d, want <= the per-shard cap of 4", got)
	}
	// Evicted entries must simply recompile, not fail.
	if ok, err := c.Disjoint(pathexpr.MustParse("L"), pathexpr.MustParse("R"), alpha); err != nil || !ok {
		t.Errorf("Disjoint(L,R) after eviction = %v, %v", ok, err)
	}
}

// TestSharedCacheStateLimit: the configured subset-construction limit is
// enforced and counted, and a failed compilation is not cached.
func TestSharedCacheStateLimit(t *testing.T) {
	alpha := NewAlphabet("L", "R", "N")
	c := NewSharedCache(1, 0, 0)
	big := pathexpr.MustParse("(L|R).(L|R).(L|R).(L|R)")
	if _, err := c.DFA(big, alpha); err == nil {
		t.Fatal("want a state-limit error from a 1-state limit")
	}
	if st := c.Stats(); st.LimitFailures == 0 {
		t.Errorf("stats did not count the limit failure: %+v", st)
	}
	if c.Len() != 0 {
		t.Errorf("failed compilation was cached: Len() = %d", c.Len())
	}
}

// TestSharedCacheOpsMemoBounded is the regression test for the long-lived-
// process leak: epoch eviction must bound the decision memo (`ops`) exactly
// like the DFA map.  A server answering millions of distinct decisions would
// otherwise grow the memo without bound even though every DFA is evicted on
// schedule.
func TestSharedCacheOpsMemoBounded(t *testing.T) {
	alpha := NewAlphabet("L", "R", "N")
	const cap = 4
	c := NewSharedCache(0, 1, cap) // one shard so the cap binds immediately
	exprs := sharedTestExprs()
	for _, x := range exprs {
		for _, y := range exprs {
			if _, err := c.Includes(x, y, alpha); err != nil {
				t.Fatalf("Includes(%v, %v): %v", x, y, err)
			}
			if _, err := c.Disjoint(x, y, alpha); err != nil {
				t.Fatalf("Disjoint(%v, %v): %v", x, y, err)
			}
			if _, err := c.Equivalent(x, y, alpha); err != nil {
				t.Fatalf("Equivalent(%v, %v): %v", x, y, err)
			}
		}
	}
	if got := c.Len(); got > cap {
		t.Errorf("Len() = %d after the sweep, want <= the per-shard cap of %d", got, cap)
	}
	if got := c.OpsLen(); got > cap {
		t.Errorf("OpsLen() = %d after the sweep, want <= the per-shard cap of %d", got, cap)
	}
	if c.OpsEvictions() == 0 {
		t.Error("OpsEvictions() = 0 after driving hundreds of decisions past a 4-entry cap")
	}
	if c.DFAEvictions() == 0 {
		t.Error("DFAEvictions() = 0 after compiling every expression into a 4-entry shard")
	}
	if total := c.Evictions(); total != c.DFAEvictions()+c.OpsEvictions() {
		t.Errorf("Evictions() = %d, want DFAEvictions+OpsEvictions = %d",
			total, c.DFAEvictions()+c.OpsEvictions())
	}
	// Evicted decisions recompute to the same answers.
	if ok, err := c.Disjoint(pathexpr.MustParse("L"), pathexpr.MustParse("R"), alpha); err != nil || !ok {
		t.Errorf("Disjoint(L,R) after ops eviction = %v, %v", ok, err)
	}
	// An unbounded cache (cap 0) never evicts, whatever its size.
	u := NewSharedCache(0, 1, 0)
	for _, x := range exprs {
		for _, y := range exprs {
			if _, err := u.Includes(x, y, alpha); err != nil {
				t.Fatalf("Includes(%v, %v): %v", x, y, err)
			}
		}
	}
	if u.Evictions() != 0 {
		t.Errorf("unbounded cache evicted %d entries", u.Evictions())
	}
}
