package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/wire"
)

// section33 is the paper's §3.3 program (a copy of testdata/section33.c, so
// the workload stays fixed even if the repository's copy is edited).
//
//go:embed testdata/section33.c
var section33 string

// Workload names, as BENCHMARK.json lists them.
const (
	wlS33Warm   = "s33-warm"
	wlFarmMix   = "farm-mix"
	wlRawChurn  = "raw-churn"
	wlRoutedRaw = "routed-raw"
)

var workloadNames = []string{wlS33Warm, wlFarmMix, wlRawChurn, wlRoutedRaw}

// Pool sizes.  farmPrograms is how many distinct programs a run sends
// before the stream wraps; a fast host wraps within a 20-second window, but
// a repeat then comes farmPrograms requests after its first sighting.
// rawSets is "several hundred" (a multiple of rawShapes), far above the
// daemon's 8-engine LRU, so nearly every raw-churn request builds a cold
// engine.  routedSets fills each of the two backends' 8 engine slots only
// halfway, so the ring never evicts.
const (
	farmPrograms = 24576
	rawSets      = 504
	routedSets   = 8
	routedPerBE  = routedSets / 2
)

// request is one generated POST /v1/batch body.
type request struct {
	body []byte
	// raw keeps a raw-mode request's set and queries for the reference;
	// program-mode requests keep only their body.
	raw *rawSet
	// queries is the number of verdicts the response must carry; want is
	// the reference's verdicts for them (see answerAll).
	queries int
	want    []verdict
}

// rawSet is one raw-mode axiom set together with its query batch.
type rawSet struct {
	set  *axiom.Set
	raws []wire.RawQuery
}

// workload is a generated request pool.  Request k of a run is
// pool[k % len(pool)]; warm is the number of leading requests the run
// sends before it starts measuring.
type workload struct {
	name string
	pool []*request
	warm int
}

// next returns the k-th request of the workload's stream.
func (w *workload) next(k int) *request { return w.pool[k%len(w.pool)] }

// generate builds the named workload from seed.  For routed-raw it returns
// the candidate stream; placed picks the pool once the ring is known.
func generate(name string, seed int64) (*workload, error) {
	switch name {
	case wlS33Warm:
		return genS33(), nil
	case wlFarmMix:
		return genFarm(seed, farmPrograms)
	case wlRawChurn:
		return genRawChurn(seed, rawSets)
	case wlRoutedRaw:
		return genRoutedCandidates(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func programRequest(src, fn string, lines []string, queries int) *request {
	br := &wire.BatchRequest{Program: src, Fn: fn, Queries: lines}
	return &request{body: mustJSON(br), queries: queries}
}

func rawRequest(rs *rawSet) *request {
	br := &wire.BatchRequest{AxiomSet: rs.set.Source(), AxiomSetName: rs.set.StructName, Raw: rs.raws}
	return &request{body: mustJSON(br), raw: rs, queries: len(rs.raws)}
}

// batch decodes the request body.
func (r *request) batch() (*wire.BatchRequest, error) {
	br := &wire.BatchRequest{}
	if err := json.Unmarshal(r.body, br); err != nil {
		return nil, err
	}
	return br, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// genS33 is one request, repeated: the §3.3 program's two queries.
func genS33() *workload {
	return &workload{
		name: wlS33Warm,
		pool: []*request{programRequest(section33, "subr", []string{"between S T", "between S I"}, 2)},
		warm: 200,
	}
}

var labelRE = regexp.MustCompile(`\b(S\d+): `)

// analyzeProgram parses and analyzes src the way the daemon does.
func analyzeProgram(src, fn string) (*analysis.Result, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return analysis.Analyze(prog, fn, analysis.Options{InferTypeAxioms: true})
}

// genFarm draws n distinct scenario programs over all five families.  Each
// carries every "between A B" line (A before B in program order) that its
// analysis anchors: the daemon answers 400 for a whole request when one
// line names a label without accesses, so lines QueriesBetween rejects or
// expands to nothing are dropped.  Programs are drawn in order from one
// seeded stream and analyzed in parallel batches, each program once: the
// same analysis picks its lines and feeds the reference, so the pool and
// its verdicts are the same for a seed however the batches are scheduled.
func genFarm(seed int64, n int) (*workload, error) {
	const batch = 512
	fams := scenario.Families()
	rng := rand.New(rand.NewSource(seed))
	refs := make([]*reference, runtime.GOMAXPROCS(0))
	for i := range refs {
		refs[i] = newReference()
	}
	w := &workload{name: wlFarmMix, warm: 64}
	seen := map[string]bool{}
	for draws := 0; len(w.pool) < n; {
		if draws > 4*n {
			return nil, fmt.Errorf("farm-mix: only %d usable programs in %d draws", len(w.pool), draws)
		}
		var srcs []string
		for len(srcs) < batch {
			fam := fams[rng.Intn(len(fams))]
			src := scenario.GenerateSpec(fam, rng).Render()
			draws++
			if !seen[src] {
				seen[src] = true
				srcs = append(srcs, src)
			}
		}
		reqs := make([]*request, len(srcs))
		errs := make([]error, len(srcs))
		parallel(len(srcs), func(wk, i int) { reqs[i], errs[i] = farmRequest(srcs[i], refs[wk]) })
		for i, req := range reqs {
			if errs[i] != nil {
				return nil, fmt.Errorf("farm-mix: generated program: %v", errs[i])
			}
			if req != nil && len(w.pool) < n {
				w.pool = append(w.pool, req)
			}
		}
	}
	return w, nil
}

// farmRequest analyzes src, keeps the between lines that expand to at least
// one query, and answers them with ref.  It returns nil when no line is
// anchored.
func farmRequest(src string, ref *reference) (*request, error) {
	res, err := analyzeProgram(src, "scenario")
	if err != nil {
		return nil, err
	}
	var labels []string
	for _, m := range labelRE.FindAllStringSubmatch(src, -1) {
		labels = append(labels, m[1])
	}
	var (
		lines   []string
		queries []core.Query
	)
	for i, a := range labels {
		for _, b := range labels[i+1:] {
			if qs, err := res.QueriesBetween(a, b); err == nil && len(qs) > 0 {
				lines = append(lines, "between "+a+" "+b)
				queries = append(queries, qs...)
			}
		}
	}
	if len(lines) == 0 {
		return nil, nil
	}
	req := programRequest(src, "scenario", lines, len(queries))
	req.want = ref.answerQueries(res.Axioms, queries)
	return req, nil
}

// parallel calls f(worker, i) for i in 0..n-1 on one worker per CPU and
// waits for all; worker is in [0, GOMAXPROCS), and each worker's calls run
// sequentially.
func parallel(n int, f func(worker, i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < n; i += workers {
				f(wk, i)
			}
		}(wk)
	}
	wg.Wait()
}

// rawCtors are the parameterised axiom-library constructors raw sets are
// drawn from.  Each takes a fresh-name generator and a size variant (0 or
// 1) and returns the set and its pointer fields in a stable order.
var rawCtors = []func(fresh func(string) string, variant int) (*axiom.Set, []string){
	func(fresh func(string) string, _ int) (*axiom.Set, []string) {
		l, r := fresh("l"), fresh("r")
		return axiom.BinaryTree(l, r), []string{l, r}
	},
	func(fresh func(string) string, variant int) (*axiom.Set, []string) {
		cs := freshN(fresh, "c", 3+variant)
		return axiom.NaryTree(cs...), cs
	},
	func(fresh func(string) string, _ int) (*axiom.Set, []string) {
		n, p := fresh("n"), fresh("p")
		return axiom.DoublyLinkedList(n, p), []string{n, p}
	},
	func(fresh func(string) string, variant int) (*axiom.Set, []string) {
		ls := freshN(fresh, "lv", 2+variant)
		return axiom.SkipList(ls...), ls
	},
	func(fresh func(string) string, variant int) (*axiom.Set, []string) {
		n := fresh("n")
		bs := freshN(fresh, "b", 2+variant)
		return axiom.ChainedHashTable(n, bs...), append(bs, n)
	},
	func(fresh func(string) string, variant int) (*axiom.Set, []string) {
		n := fresh("n")
		cs := freshN(fresh, "k", 2+variant)
		return axiom.BPlusTree(n, cs...), append(cs, n)
	},
}

func freshN(fresh func(string) string, prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fresh(prefix + strconv.Itoa(i))
	}
	return out
}

// rawShapes is the number of (constructor, size variant) pairs.
var rawShapes = 2 * len(rawCtors)

// genRawSet builds raw axiom set i of a stream in the given shape (in
// [0, rawShapes)), with field names unique to (stream tag, i).  Its four
// queries close over the alternation of every pointer field — the shape
// that makes a cold engine compile large DFAs and search deeply, while a
// warm one answers from its memo.
func genRawSet(tag string, i, shape int) *rawSet {
	fresh := func(base string) string { return fmt.Sprintf("%s_%s%d", base, tag, i) }
	set, fields := rawCtors[shape%len(rawCtors)](fresh, shape/len(rawCtors))
	set.StructName = fmt.Sprintf("%s_%s%d", set.StructName, tag, i)
	a, b := fields[0], fields[1]
	any := "(" + strings.Join(fields, "|") + ")+"
	raws := []wire.RawQuery{
		{SHandle: "h", SPath: any, SField: "val", SWrite: true, THandle: "h", TPath: any, TField: "val"},
		{SHandle: "h", SPath: a + "." + any, SField: "val", SWrite: true, THandle: "h", TPath: b + "." + any, TField: "val", TWrite: true},
		{SHandle: "h", SPath: any + "." + a, SField: "val", SWrite: true, THandle: "h", TPath: any + "." + b, TField: "val"},
		{SHandle: "h", SPath: a + "+", SField: "val", SWrite: true, THandle: "h", TPath: b + "." + any, TField: "val"},
	}
	return &rawSet{set: set, raws: raws}
}

// streamTag is a short name component derived from the seed, so two seeds
// never share field names (and hence axiom-set identities).
func streamTag(rng *rand.Rand) string {
	return strconv.FormatUint(uint64(rng.Int63())%(36*36*36*36), 36)
}

// genRawChurn builds n distinct raw sets, every shape equally often, and
// cycles them in a seeded order.  The seed moves identities and order, not
// the mix of shapes, so seeds do not differ in how much work they ask for.
func genRawChurn(seed int64, n int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	tag := streamTag(rng)
	w := &workload{name: wlRawChurn, warm: n}
	for i := 0; i < n; i++ {
		w.pool = append(w.pool, rawRequest(genRawSet(tag, i, i%rawShapes)))
	}
	rng.Shuffle(len(w.pool), func(i, j int) { w.pool[i], w.pool[j] = w.pool[j], w.pool[i] })
	return w, nil
}

// routedTries is how many candidate sets routed-raw draws per pool slot.
// The ring can give one of two backends as little as a sixth of the key
// space; even then 64 tries all missing it has odds below 1e-5.
const routedTries = 64

// genRoutedCandidates draws the candidate sets routed-raw picks its pool
// from once the backends are known (see placed).  Candidate t*routedSets+s
// is the t-th try for slot s, which always has shape s, so every pool has
// the same mix of shapes.
func genRoutedCandidates(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	tag := streamTag(rng)
	w := &workload{name: wlRoutedRaw, warm: 20 * routedSets}
	for i := 0; i < routedTries*routedSets; i++ {
		w.pool = append(w.pool, rawRequest(genRawSet(tag, i, i%routedSets)))
	}
	return w
}

// placed returns routed-raw's pool for a router over backends: for each
// slot, the first try the ring places on a backend that still has room for
// routedPerBE sets (as clusterShardSets in cmd/aptserved places shards).
// Every set then stays resident in its owner's 8-engine pool, and warm-up
// leaves no engine cold.  The pick depends on the addresses as well as the
// seed.
func (w *workload) placed(backends []string) (*workload, error) {
	if len(backends) != 2 {
		return nil, fmt.Errorf("routed-raw: want 2 backends, got %d", len(backends))
	}
	norm := make([]string, len(backends))
	for i, b := range backends {
		norm[i] = route.NormalizeAddr(b)
	}
	ring := route.NewRing(norm)
	perOwner := map[string]int{}
	out := &workload{name: w.name, warm: w.warm}
	for s := 0; s < routedSets; s++ {
		for t := 0; ; t++ {
			if t == routedTries {
				return nil, fmt.Errorf("routed-raw: no try of slot %d fits the ring", s)
			}
			req := w.pool[t*routedSets+s]
			owner := ring.Owner(req.raw.set.Fingerprint64())
			if perOwner[owner] < routedPerBE {
				perOwner[owner]++
				out.pool = append(out.pool, req)
				break
			}
		}
	}
	return out, nil
}
