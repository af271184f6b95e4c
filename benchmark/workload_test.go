package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/route"
	"repro/internal/scenario"
)

func bodies(w *workload) [][]byte {
	out := make([][]byte, len(w.pool))
	for i, r := range w.pool {
		out[i] = r.body
	}
	return out
}

func sameBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestGeneratorsAreSeedDeterministic: the same seed gives byte-identical
// request bodies (and reference verdicts); another seed gives other bodies.
func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) (*workload, error){
		wlS33Warm:   func(int64) (*workload, error) { return genS33(), nil },
		wlFarmMix:   func(seed int64) (*workload, error) { return genFarm(seed, 600) },
		wlRawChurn:  func(seed int64) (*workload, error) { return genRawChurn(seed, 48) },
		wlRoutedRaw: func(seed int64) (*workload, error) { return genRoutedCandidates(seed), nil },
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := gen(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameBodies(bodies(a), bodies(b)) {
			t.Errorf("%s: seed 7 generated different bodies twice", name)
		}
		if name == wlFarmMix {
			for i := range a.pool {
				if fmt.Sprint(a.pool[i].want) != fmt.Sprint(b.pool[i].want) {
					t.Fatalf("farm-mix: request %d reference verdicts differ between generations", i)
				}
			}
		}
		if name == wlS33Warm {
			continue // one fixed request, by design
		}
		c, err := gen(8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sameBodies(bodies(a), bodies(c)) {
			t.Errorf("%s: seeds 7 and 8 generated the same bodies", name)
		}
	}
}

// TestFarmMixProgramsAreDistinctAndAnchored: no program text repeats, and
// every line of every program expands to at least one query (the daemon
// rejects a whole request for one unanchored line).
func TestFarmMixProgramsAreDistinctAndAnchored(t *testing.T) {
	w, err := genFarm(3, 300)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	fams := map[string]bool{}
	queries := 0
	for i, req := range w.pool {
		br, err := req.batch()
		if err != nil {
			t.Fatal(err)
		}
		if seen[br.Program] {
			t.Fatalf("program %d repeats an earlier one", i)
		}
		seen[br.Program] = true
		res, err := analyzeProgram(br.Program, br.Fn)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		for _, fam := range scenario.Families() {
			if strings.Contains(br.Program, "struct "+fam.StructName+" {") {
				fams[fam.Name] = true
			}
		}
		for _, line := range br.Queries {
			qs, _, err := expandBetween([]string{line}, res)
			if err != nil || len(qs) == 0 {
				t.Fatalf("program %d: line %q anchors nothing (%v)", i, line, err)
			}
		}
		queries += req.queries
	}
	if len(fams) != 5 {
		t.Errorf("programs cover %d families, want all 5: %v", len(fams), fams)
	}
	if per := float64(queries) / float64(len(w.pool)); per < 4 || per > 20 {
		t.Errorf("%.1f queries per request; the workload is meant to carry about 9", per)
	}
}

// TestRawChurnMix: every shape appears equally often and no two sets share
// an identity.
func TestRawChurnMix(t *testing.T) {
	w, err := genRawChurn(5, 4*rawShapes)
	if err != nil {
		t.Fatal(err)
	}
	fps := map[uint64]bool{}
	shapes := map[string]int{} // constructor name (with arity where it has one)
	for _, req := range w.pool {
		fp := req.raw.set.Fingerprint64()
		if fps[fp] {
			t.Fatalf("two raw sets share fingerprint %x", fp)
		}
		fps[fp] = true
		name, _, _ := strings.Cut(req.raw.set.StructName, "_")
		shapes[name]++
	}
	// Binary trees and doubly linked lists have one arity, so both size
	// variants share a name; every other shape is named apart.
	if len(shapes) < len(rawCtors) {
		t.Errorf("only %d constructors drawn: %v", len(shapes), shapes)
	}
	for name, n := range shapes {
		if n != 4 && n != 8 {
			t.Errorf("shape %s drawn %d times in 4 rounds of %d shapes", name, n, rawShapes)
		}
	}
	if rawSets%rawShapes != 0 {
		t.Errorf("rawSets %d is not a multiple of the %d shapes", rawSets, rawShapes)
	}
}

// TestRoutedPlacementFitsRing: the placed pool gives each backend exactly
// routedPerBE sets, within its 8-engine capacity, for any pair of
// addresses; and placement is a function of seed and addresses.
func TestRoutedPlacementFitsRing(t *testing.T) {
	cands := genRoutedCandidates(11)
	for port := 40000; port < 40040; port += 2 {
		addrs := []string{fmt.Sprintf("127.0.0.1:%d", port), fmt.Sprintf("127.0.0.1:%d", port+1)}
		w, err := cands.placed(addrs)
		if err != nil {
			t.Fatalf("%v: %v", addrs, err)
		}
		if len(w.pool) != routedSets {
			t.Fatalf("%v: %d sets, want %d", addrs, len(w.pool), routedSets)
		}
		ring := route.NewRing([]string{route.NormalizeAddr(addrs[0]), route.NormalizeAddr(addrs[1])})
		per := map[string]int{}
		for _, req := range w.pool {
			per[ring.Owner(req.raw.set.Fingerprint64())]++
		}
		for owner, n := range per {
			if n != routedPerBE || n > 8 {
				t.Errorf("%v: backend %s owns %d sets, want %d (engine capacity 8)", addrs, owner, n, routedPerBE)
			}
		}
		again, _ := genRoutedCandidates(11).placed(addrs)
		if !sameBodies(bodies(w), bodies(again)) {
			t.Errorf("%v: placement differs for the same seed and addresses", addrs)
		}
	}
}
