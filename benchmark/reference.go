package main

import (
	"fmt"
	"runtime"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// verdict is one query's answer as the daemon renders it.
type verdict struct {
	Result string `json:"result"`
	Kind   string `json:"kind"`
	Reason string `json:"reason"`
}

// reference answers queries with a fresh sequential core.Tester per axiom
// set: default prover options, and no engine, proof memo, shared DFA
// cache, serve or wire.  Its verdicts are the ground truth every served
// verdict is checked against.  A reference is sequential, like its
// testers; parallel callers keep one each (verdicts do not depend on which
// reference answers).
type reference struct {
	testers map[uint64]*core.Tester
}

func newReference() *reference { return &reference{testers: map[uint64]*core.Tester{}} }

func (r *reference) tester(ax *axiom.Set) *core.Tester {
	t, ok := r.testers[ax.ID()]
	if !ok {
		t = core.NewTester(ax, prover.Options{})
		r.testers[ax.ID()] = t
	}
	return t
}

// answerAll fills in the reference verdicts of every request of the pool
// that has none yet, one reference per CPU.
func answerAll(pool []*request) error {
	var todo []*request
	for _, req := range pool {
		if req.want == nil {
			todo = append(todo, req)
		}
	}
	refs := make([]*reference, runtime.GOMAXPROCS(0))
	for i := range refs {
		refs[i] = newReference()
	}
	errs := make([]error, len(todo))
	parallel(len(todo), func(wk, i int) {
		todo[i].want, errs[i] = refs[wk].answer(todo[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *reference) answer(req *request) ([]verdict, error) {
	var (
		vs  []verdict
		err error
	)
	if req.raw != nil {
		vs, err = r.answerRaw(req.raw)
	} else {
		vs, err = r.answerProgram(req)
	}
	if err != nil {
		return nil, fmt.Errorf("reference: %v", err)
	}
	if len(vs) != req.queries {
		return nil, fmt.Errorf("reference: %d verdicts for a request of %d queries", len(vs), req.queries)
	}
	return vs, nil
}

// answerProgram analyzes a program-mode request and answers its lines in
// the order the daemon expands them.
func (r *reference) answerProgram(req *request) ([]verdict, error) {
	br, err := req.batch()
	if err != nil {
		return nil, err
	}
	res, err := analyzeProgram(br.Program, br.Fn)
	if err != nil {
		return nil, err
	}
	qs, _, err := expandBetween(br.Queries, res)
	if err != nil {
		return nil, err
	}
	return r.answerQueries(res.Axioms, qs), nil
}

// answerQueries answers a program's expanded queries; ax is the program's
// analysis axiom set (queries may carry narrower validity windows).
func (r *reference) answerQueries(ax *axiom.Set, qs []core.Query) []verdict {
	t := r.tester(ax)
	out := make([]verdict, len(qs))
	for i, q := range qs {
		out[i] = render(t.DepTest(q))
	}
	return out
}

// answerRaw builds each raw query from the generator's own form (paths
// over the set's fields, same handle) rather than through the exec layer.
func (r *reference) answerRaw(rs *rawSet) ([]verdict, error) {
	t := r.tester(rs.set)
	fields := rs.set.Fields()
	out := make([]verdict, len(rs.raws))
	for i, rq := range rs.raws {
		sp, err := pathexpr.ParseAlphabet(rq.SPath, fields)
		if err != nil {
			return nil, err
		}
		tp, err := pathexpr.ParseAlphabet(rq.TPath, fields)
		if err != nil {
			return nil, err
		}
		out[i] = render(t.DepTest(core.Query{
			Axioms:   rs.set,
			S:        core.Access{Handle: rq.SHandle, Path: sp, Field: rq.SField, IsWrite: rq.SWrite},
			T:        core.Access{Handle: rq.THandle, Path: tp, Field: rq.TField, IsWrite: rq.TWrite},
			Relation: core.SameHandle,
		}))
	}
	return out, nil
}

func render(o core.Outcome) verdict {
	return verdict{Result: o.Result.String(), Kind: o.Kind.String(), Reason: o.Reason}
}

// checkS33 pins the paper's known answer: S→T in §3.3's subr is No.
func checkS33(w *workload) error {
	if w.name != wlS33Warm {
		return nil
	}
	vs := w.pool[0].want
	if len(vs) == 0 || vs[0].Result != core.No.String() {
		return fmt.Errorf("s33-warm: reference says %v for 'between S T'; the paper proves No", vs)
	}
	return nil
}
