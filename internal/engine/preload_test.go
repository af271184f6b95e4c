package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// TestPreloadedEngineMatchesCold is the artifact round-trip differential:
// a cold engine answers the full seeded workload; its DFA-cache snapshot is
// saved, loaded back through the mmap path, and preseeded into a second
// engine, which must produce byte-identical verdicts — and do so without
// compiling a single DFA, proving the artifact really covers the working
// set rather than being quietly recompiled around.  The snapshot is taken
// after coverEverySchedule, so the warm run's scheduling does not ask a
// decision only because the cold run's scheduling happened not to.
func TestPreloadedEngineMatchesCold(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			queries := Workload(seed, 0)
			if len(queries) < 200 {
				t.Fatalf("workload too small: %d queries", len(queries))
			}
			cold := New(WorkloadWindows()[0], Options{Workers: 4})
			want := cold.Batch(context.Background(), queries)
			coverEverySchedule(cold, queries)

			path := filepath.Join(t.TempDir(), "workload.aptc")
			if err := cold.DFACache().Snapshot().Save(path); err != nil {
				t.Fatalf("Save: %v", err)
			}
			art, err := automata.LoadArtifact(path)
			if err != nil {
				t.Fatalf("LoadArtifact: %v", err)
			}
			defer art.Close()
			if len(art.DFAs) == 0 {
				t.Fatal("snapshot holds no DFAs; the differential would be vacuous")
			}

			warm := New(WorkloadWindows()[0], Options{Workers: 4, Preload: art})
			got := warm.Batch(context.Background(), queries)
			if len(got) != len(want) {
				t.Fatalf("got %d results for %d queries", len(got), len(queries))
			}
			for i := range got {
				if got[i].Result != want[i].Result || got[i].Kind != want[i].Kind || got[i].Reason != want[i].Reason {
					t.Errorf("query %d (%s): preloaded engine says %v/%v/%q, cold engine says %v/%v/%q",
						i, describe(queries[i]),
						got[i].Result, got[i].Kind, got[i].Reason,
						want[i].Result, want[i].Kind, want[i].Reason)
				}
			}
			if st := warm.Stats(); st.DFA.Compiles != 0 {
				t.Errorf("preloaded engine compiled %d DFAs; the artifact should cover the whole working set", st.DFA.Compiles)
			}
		})
	}
}

// coverEverySchedule widens the engine's DFA working set to what any
// scheduling of a multi-worker batch over queries can need.  Each worker's
// prover keeps a private goal cache, and which worker proves a goal the
// proof memo shares depends on scheduling, so a given goal may be proved
// with a different set of subgoals already cached than in another run —
// and a subgoal one run answered from cache is explored, and its language
// decisions asked, in the other.  A fresh prover's empty goal cache answers
// no subgoal from cache, so proving every goal of every query with one on
// the engine's DFA cache explores, and asks the decisions of, every such
// subgoal.
func coverEverySchedule(e *Engine, queries []core.Query) {
	opts := e.opts.Prover
	opts.DFACache = e.dfas
	for _, q := range queries {
		core.NewTester(q.Axioms, opts).SetProofMemo(freshGoalProver{q.Axioms, opts}).DepTest(q)
	}
}

// freshGoalProver is a core.ProofMemo that proves every goal with a new
// prover, so no goal starts with another goal's subgoals in its cache.
type freshGoalProver struct {
	axioms *axiom.Set
	opts   prover.Options
}

func (f freshGoalProver) Prove(_ uint64, form prover.Form, x, y pathexpr.Expr, _ func() *prover.Proof) *prover.Proof {
	return prover.New(f.axioms, f.opts).Prove(form, x, y)
}
