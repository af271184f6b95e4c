package prover

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/axiom"
	"repro/internal/pathexpr"
	"repro/internal/telemetry"
)

// TestStatsRichFields: every query reports DFA compiles, peak depth, and
// budget consumption alongside the original counters.
func TestStatsRichFields(t *testing.T) {
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	proof := p.ProveDisjoint(pathexpr.MustParse("L.L.N"), pathexpr.MustParse("L.R.N"))
	if proof.Result != Proved {
		t.Fatalf("result = %v", proof.Result)
	}
	st := proof.Stats
	if st.StepsUsed != st.ProveCalls || st.StepsUsed == 0 {
		t.Errorf("StepsUsed = %d, ProveCalls = %d", st.StepsUsed, st.ProveCalls)
	}
	if st.DFACompiles == 0 {
		t.Error("DFACompiles = 0 on a fresh prover")
	}
	if st.PeakDepth == 0 {
		t.Error("PeakDepth = 0 for a recursive proof")
	}
	// A repeat of the same query is answered from the caches: no new DFA
	// compilations.
	again := p.ProveDisjoint(pathexpr.MustParse("L.L.N"), pathexpr.MustParse("L.R.N"))
	if again.Stats.DFACompiles != 0 {
		t.Errorf("second query compiled %d DFAs, want 0", again.Stats.DFACompiles)
	}
	if !strings.Contains(proof.Render(), "DFA compiles") {
		t.Error("Render missing DFA compile count")
	}
}

// TestProverTelemetry: metrics aggregate across queries and the JSONL trace
// carries the per-query span plus rule events.
func TestProverTelemetry(t *testing.T) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	tel := telemetry.New(reg, telemetry.NewTraceWriter(&buf))
	p := New(axiom.LeafLinkedBinaryTree(), Options{Telemetry: tel})

	if p.ProveDisjoint(pathexpr.MustParse("L.L.N"), pathexpr.MustParse("L.R.N")).Result != Proved {
		t.Fatal("section 3.3 theorem not proved")
	}
	// §5's Theorem T exercises the Kleene induction machinery.
	p2 := New(axiom.SparseMatrixCore(), Options{Telemetry: tel})
	if p2.Prove(SameSrc, pathexpr.MustParse("ncolE+"), pathexpr.MustParse("nrowE+.ncolE+")).Result != Proved {
		t.Fatal("Theorem T not proved")
	}

	snap := reg.Snapshot()
	if snap.Counters["prover.queries"] != 2 {
		t.Errorf("prover.queries = %d, want 2", snap.Counters["prover.queries"])
	}
	for _, c := range []string{"prover.goals", "prover.direct_checks", "automata.compiles", "automata.lookups"} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s = 0", c)
		}
	}
	if snap.Maxes["prover.peak_depth"] == 0 {
		t.Error("prover.peak_depth max = 0")
	}
	if snap.Hists["prover.query_ns"].Count != 2 {
		t.Errorf("prover.query_ns count = %d, want 2", snap.Hists["prover.query_ns"].Count)
	}

	events := map[string]int{}
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, ln)
		}
		events[m["ev"].(string)]++
		if m["ev"] == "prover.prove" {
			for _, k := range []string{"dur_us", "theorem", "result", "steps", "peak_depth", "dfa_compiles",
				"budget", "cache_hits", "span_id"} {
				if _, ok := m[k]; !ok {
					t.Errorf("prover.prove span missing %q: %v", k, m)
				}
			}
		}
	}
	if events["prover.prove"] != 2 || events["prover.query"] != 0 {
		t.Errorf("prover.prove spans = %d, prover.query events = %d; want one span per query and no events",
			events["prover.prove"], events["prover.query"])
	}
	if events["prover.suffix_split"] == 0 {
		t.Error("no prover.suffix_split events")
	}
	if events["prover.plus_induction"] == 0 {
		t.Error("no prover.plus_induction events")
	}
	if events["automata.compile"] == 0 {
		t.Error("no automata.compile events")
	}
}
