package heap

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/axiom"
)

// Checker model-checks one axiom set against concrete heaps with the
// per-axiom DFAs compiled once up front.  Graph.CheckSet recompiles the
// automata on every call, which is fine for a handful of heaps but
// dominates when a caller sweeps thousands of enumerated shapes (the
// scenario farm filters (n+1)^(n·fields) candidate graphs per family); a
// Checker amortizes the compilation across the whole sweep.
//
// A Checker is immutable after construction and safe for concurrent use.
type Checker struct {
	set    *axiom.Set
	axioms []checkedAxiom
}

type checkedAxiom struct {
	ax     axiom.Axiom
	d1, d2 *automata.DFA
}

// NewChecker compiles the set's axioms over the union of the axioms' fields
// and the extra graph fields.  Edges over fields outside that union are
// invisible to every axiom language (exactly as in Graph.CheckSet, whose
// per-call alphabet also covers only the graph's and the axiom's fields).
func NewChecker(set *axiom.Set, graphFields ...string) *Checker {
	fields := append(append([]string{}, set.Fields()...), graphFields...)
	alpha := automata.NewAlphabet(fields...)
	c := &Checker{set: set}
	for _, a := range set.Axioms {
		c.axioms = append(c.axioms, checkedAxiom{
			ax: a,
			d1: automata.MustCompile(a.RE1, alpha),
			d2: automata.MustCompile(a.RE2, alpha),
		})
	}
	return c
}

// Set returns the axiom set the checker was built from.
func (c *Checker) Set() *axiom.Set { return c.set }

// Conforms model-checks every axiom against the heap and returns the first
// violation, or nil when the heap conforms.  Semantically identical to
// g.CheckSet(c.Set()) but without per-call DFA compilation.
func (c *Checker) Conforms(g *Graph) error {
	fields := g.Fields()
	n := g.NumVertices()
	for _, ca := range c.axioms {
		switch ca.ax.Form {
		case axiom.SameSrcDisjoint:
			for v := Vertex(0); int(v) < n; v++ {
				if !disjointSets(g.evalDFA(v, ca.d1, fields), g.evalDFA(v, ca.d2, fields)) {
					return fmt.Errorf("heap: axiom %v violated at vertex %d", ca.ax, v)
				}
			}
		case axiom.DiffSrcDisjoint:
			for v := Vertex(0); int(v) < n; v++ {
				s1 := g.evalDFA(v, ca.d1, fields)
				for w := Vertex(0); int(w) < n; w++ {
					if v == w {
						continue
					}
					if !disjointSets(s1, g.evalDFA(w, ca.d2, fields)) {
						return fmt.Errorf("heap: axiom %v violated at vertices %d, %d", ca.ax, v, w)
					}
				}
			}
		case axiom.SameSrcEqual:
			for v := Vertex(0); int(v) < n; v++ {
				s1 := g.evalDFA(v, ca.d1, fields)
				s2 := g.evalDFA(v, ca.d2, fields)
				if !sameSet(s1, s2) {
					return fmt.Errorf("heap: equality axiom %v violated at vertex %d (%v vs %v)",
						ca.ax, v, keys(s1), keys(s2))
				}
			}
		}
	}
	return nil
}

// evalDFA is the product reachability walk of Eval with the DFA supplied by
// the caller (and the graph's field list hoisted out of the loop).
func (g *Graph) evalDFA(v Vertex, d *automata.DFA, fields []string) map[Vertex]bool {
	type conf struct {
		v Vertex
		s int
	}
	out := make(map[Vertex]bool)
	seen := map[conf]bool{{v, 0}: true}
	stack := []conf{{v, 0}}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.Accepting(c.s) {
			out[c.v] = true
		}
		for _, f := range fields {
			w, ok := g.Edge(c.v, f)
			if !ok {
				continue
			}
			ns := d.Step(c.s, f)
			if ns < 0 {
				continue
			}
			nc := conf{w, ns}
			if !seen[nc] {
				seen[nc] = true
				stack = append(stack, nc)
			}
		}
	}
	return out
}

func disjointSets(a, b map[Vertex]bool) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for v := range a {
		if b[v] {
			return false
		}
	}
	return true
}
