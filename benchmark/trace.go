package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/lang"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The traced run replays the workload's seeded request stream in process,
// on one goroutine, through each layer's public functions in the order
// internal/serve calls them.  Every call is a span; spans stay in memory
// and are written out when the run ends.  Tracing lives entirely in the
// benchmark's files: the program itself is not instrumented.

// span is one timed call.  IDs are per run; Parent 0 is a request root.
type span struct {
	Req     int    `json:"req"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced run began
	EndNS   int64  `json:"end_ns"`
	Allocs  uint64 `json:"allocs"` // runtime.MemStats.Mallocs delta (leaf spans)
}

type tracer struct {
	t0    time.Time
	spans []span
	req   int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span that call()s nest under; close ends it.
func (tr *tracer) open(name string, parent int) int {
	tr.spans = append(tr.spans, span{Req: tr.req, ID: len(tr.spans) + 1, Parent: parent, Name: name,
		StartNS: time.Since(tr.t0).Nanoseconds()})
	return len(tr.spans)
}

func (tr *tracer) close(id int) { tr.spans[id-1].EndNS = time.Since(tr.t0).Nanoseconds() }

// call runs f as a leaf span under parent, counting its allocations.  The
// MemStats reads sit outside the timed interval.
func (tr *tracer) call(name string, parent int, f func()) {
	runtime.ReadMemStats(&tr.ms)
	m0 := tr.ms.Mallocs
	s := time.Since(tr.t0).Nanoseconds()
	f()
	e := time.Since(tr.t0).Nanoseconds()
	runtime.ReadMemStats(&tr.ms)
	tr.spans = append(tr.spans, span{Req: tr.req, ID: len(tr.spans) + 1, Parent: parent, Name: name,
		StartNS: s, EndNS: e, Allocs: tr.ms.Mallocs - m0})
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats reduces the spans of the measured requests (req >= from) to
// per-request medians of each span name's self time (µs) and allocations.
// Self time is a span's duration minus the time its children cover.
func (tr *tracer) layerStats(from int) (selfUS, allocs map[string]float64, totalUS float64) {
	type acc struct{ us, allocs float64 }
	child := map[int]int64{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	perReq := map[int]map[string]*acc{}
	for _, s := range tr.spans {
		if s.Req < from {
			continue
		}
		m := perReq[s.Req]
		if m == nil {
			m = map[string]*acc{}
			perReq[s.Req] = m
		}
		a := m[s.Name]
		if a == nil {
			a = &acc{}
			m[s.Name] = a
		}
		a.us += float64(s.EndNS-s.StartNS-child[s.ID]) / 1e3
		a.allocs += float64(s.Allocs)
	}
	us, al := map[string][]float64{}, map[string][]float64{}
	var totals []float64
	for _, m := range perReq {
		t := 0.0
		for name, a := range m {
			us[name] = append(us[name], a.us)
			al[name] = append(al[name], a.allocs)
			if serviceSpans[name] {
				t += a.us
			}
		}
		totals = append(totals, t)
	}
	selfUS, allocs = map[string]float64{}, map[string]float64{}
	for name := range us {
		selfUS[name] = median(us[name])
		allocs[name] = median(al[name])
	}
	return selfUS, allocs, median(totals)
}

// serviceSpans are the spans inside the window the daemon's stats.
// service_us covers (after decode, before encode).
var serviceSpans = map[string]bool{
	"lang.parse": true, "analysis.analyze": true, "analysis.expand": true,
	"axiom.parse": true, "exec.build_raw": true, "exec.acquire": true, "engine.batch": true,
}

// daemonConfig mirrors the aptserved defaults the untraced run uses.
func daemonConfig(tel *telemetry.Set) serve.Config {
	return serve.Config{
		Workers:      runtime.GOMAXPROCS(0),
		QueryTimeout: serve.DefaultQueryTimeout,
		MaxDeadline:  serve.DefaultMaxDeadline,
		MaxEngines:   serve.DefaultMaxEngines,
		DFAShardCap:  serve.DefaultShardCap,
		MemoShardCap: serve.DefaultShardCap,
		MaxQueries:   serve.DefaultMaxQueries,
		Telemetry:    tel,
	}
}

// replayer is the traced pipeline: the layers serve composes, called
// directly.
type replayer struct {
	tr   *tracer
	tel  *telemetry.Set
	pool *exec.Pool

	tally tally
	// Counter deltas over the measured requests.
	measuring             bool
	acquires, cold        int
	memoHits, memoLookups int64
	dfaHits, dfaLookups   int64
	decHits, decLookups   int64
	degraded              int64
	evictions             int64
	queries               []float64
	respBytes             []float64
}

func newReplayer() *replayer {
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	cfg := daemonConfig(tel)
	return &replayer{
		tr:  newTracer(),
		tel: tel,
		pool: exec.NewPool(exec.PoolConfig{
			Workers:      cfg.Workers,
			QueryTimeout: cfg.QueryTimeout,
			MaxEngines:   cfg.MaxEngines,
			DFAShardCap:  cfg.DFAShardCap,
			MemoShardCap: cfg.MemoShardCap,
		}, tel),
	}
}

// replay runs one request through the layers, checks its verdicts, and
// records spans under request id k.
func (rp *replayer) replay(k int, req *request) error {
	tr := rp.tr
	tr.req = k
	root := tr.open("request", 0)
	defer tr.close(root)

	var (
		br      wire.BatchRequest
		ax      *axiom.Set
		queries []core.Query
		echo    func(i int) (int, string)
		err     error
	)
	tr.call("wire.decode", root, func() { err = json.NewDecoder(bytes.NewReader(req.body)).Decode(&br) })
	if err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	if len(br.Raw) == 0 {
		var (
			prog    *lang.Program
			res     *analysis.Result
			origins []int
		)
		tr.call("lang.parse", root, func() { prog, err = lang.Parse(br.Program) })
		if err != nil {
			return err
		}
		tr.call("analysis.analyze", root, func() {
			res, err = analysis.Analyze(prog, br.Fn, analysis.Options{
				InferTypeAxioms:      true,
				AssumeLoopInvariants: br.AssumeInvariants,
				Telemetry:            rp.tel,
			})
		})
		if err != nil {
			return err
		}
		tr.call("analysis.expand", root, func() { queries, origins, err = expandBetween(br.Queries, res) })
		if err != nil {
			return err
		}
		ax = res.Axioms
		echo = func(i int) (int, string) { return origins[i], br.Queries[origins[i]] }
	} else {
		tr.call("axiom.parse", root, func() { ax, err = axiom.ParseSet(br.AxiomSetName, br.AxiomSet) })
		if err != nil {
			return err
		}
		tr.call("exec.build_raw", root, func() { queries, err = exec.BuildRawQueries(ax, br.Raw) })
		if err != nil {
			return err
		}
		echo = func(i int) (int, string) { return i, exec.RenderRawQuery(br.Raw[i]) }
	}

	var (
		eng  *engine.Engine
		cold bool
	)
	tr.call("exec.acquire", root, func() { eng, cold = rp.pool.Get(ax) })
	st0 := eng.Stats()
	dl0, dh0 := eng.DFACache().DecisionStats()
	var outs []core.Outcome
	tr.call("engine.batch", root, func() {
		ctx, cancel := context.WithTimeout(context.Background(), serve.DefaultMaxDeadline)
		defer cancel()
		outs = eng.BatchTimeout(ctx, queries, serve.DefaultQueryTimeout)
	})
	st1 := eng.Stats()
	dl1, dh1 := eng.DFACache().DecisionStats()

	resp := &wire.BatchResponse{Results: make([]wire.QueryResult, len(outs))}
	got := make([]verdict, len(outs))
	for i, out := range outs {
		line, src := echo(i)
		resp.Results[i] = wire.QueryResult{Line: line, Query: src, S: queries[i].S.String(), T: queries[i].T.String(),
			Result: out.Result.String(), Kind: out.Kind.String(), Reason: out.Reason}
		got[i] = render(out)
		if out.Result != core.No {
			resp.Dependent = true
		}
	}
	resp.Stats = wire.BatchStats{Queries: len(outs), ColdEngine: cold, AxiomSet: ax.StructName,
		MemoHits: st1.Memo.Hits, MemoLookups: st1.Memo.Lookups,
		DFAHits: int64(st1.DFA.Hits), DFALookups: int64(st1.DFA.Lookups), Timeouts: st1.Timeouts}
	bw := &bufferWriter{h: http.Header{}}
	tr.call("wire.encode", root, func() { wire.WriteJSON(bw, http.StatusOK, resp) })

	rp.tally.add(compareVerdicts(got, req.want))
	if rp.measuring {
		rp.acquires++
		if cold {
			rp.cold++
		}
		rp.memoHits += st1.Memo.Hits - st0.Memo.Hits
		rp.memoLookups += st1.Memo.Lookups - st0.Memo.Lookups
		rp.dfaHits += int64(st1.DFA.Hits - st0.DFA.Hits)
		rp.dfaLookups += int64(st1.DFA.Lookups - st0.DFA.Lookups)
		rp.decHits += dh1 - dh0
		rp.decLookups += dl1 - dl0
		rp.degraded += (st1.Timeouts + st1.DeadlineExpired + st1.Canceled) - (st0.Timeouts + st0.DeadlineExpired + st0.Canceled)
		rp.queries = append(rp.queries, float64(len(queries)))
		rp.respBytes = append(rp.respBytes, float64(bw.buf.Len()))
	}
	return nil
}

// expandBetween expands "between A B" lines through the analysis' public
// query builder, remembering each query's line (the benchmark's workloads
// send no other line kinds).
func expandBetween(lines []string, res *analysis.Result) ([]core.Query, []int, error) {
	var (
		qs      []core.Query
		origins []int
	)
	for n, line := range lines {
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "between" {
			return nil, nil, fmt.Errorf("queries[%d]: unsupported line %q", n, line)
		}
		got, err := res.QueriesBetween(f[1], f[2])
		if err != nil {
			return nil, nil, fmt.Errorf("queries[%d]: %w", n, err)
		}
		qs = append(qs, got...)
		for range got {
			origins = append(origins, n)
		}
	}
	return qs, origins, nil
}

// replayWindow replays the warm-up requests, then measured requests from
// stream index w.warm until budget passes (at least minReplay of them).
func (rp *replayer) replayWindow(w *workload, budget time.Duration) error {
	for k := 0; k < w.warm; k++ {
		if err := rp.replay(k, w.next(k)); err != nil {
			return fmt.Errorf("traced warm-up request %d: %v", k, err)
		}
	}
	rp.measuring = true
	ev0 := rp.pool.Evicted()
	deadline := time.Now().Add(budget)
	for k := w.warm; k < w.warm+minReplay || time.Now().Before(deadline); k++ {
		if err := rp.replay(k, w.next(k)); err != nil {
			return fmt.Errorf("traced request %d: %v", k, err)
		}
	}
	rp.evictions = rp.pool.Evicted() - ev0
	return nil
}

// minReplay is the fewest measured requests a traced phase replays.
const minReplay = 50

// dfaLen sums the resident engines' compiled-DFA counts.
func (rp *replayer) dfaLen() int {
	n := 0
	for _, v := range rp.pool.Snapshot() {
		n += v.Eng.DFACache().Len()
	}
	return n
}

// handlerPass times the in-process Server.ServeHTTP (and, routed, the
// Router.ServeHTTP in front of two in-process backends) over the same
// request stream: warm-up, then measured requests until budget passes.
type handlerPass struct {
	handlerUS []float64
	hopUS     []float64
	forwarded int64
	tally     tally
}

// timedHandler wraps a backend's ServeHTTP, keeping the last /v1/batch
// duration (the pass sends one request at a time).
type timedHandler struct {
	h    http.Handler
	last atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	if r.URL.Path == "/v1/batch" {
		t.last.Store(time.Since(t0).Nanoseconds())
	}
}

// bufferWriter is an http.ResponseWriter that keeps the status and body.
type bufferWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (w *bufferWriter) Header() http.Header         { return w.h }
func (w *bufferWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *bufferWriter) WriteHeader(code int)        { w.status = code }

func runHandlerPass(w *workload, routed bool, budget time.Duration) (*handlerPass, error) {
	hp := &handlerPass{}
	var (
		front    http.Handler
		backends []*timedHandler
		rt       *route.Router
		stops    []func()
	)
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}()
	newBackend := func() *timedHandler {
		srv := serve.New(daemonConfig(telemetry.New(telemetry.NewRegistry(), nil)))
		return &timedHandler{h: srv}
	}
	if !routed {
		b := newBackend()
		backends = append(backends, b)
		front = b
	} else {
		var addrs []string
		for i := 0; i < 2; i++ {
			b := newBackend()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			hs := &http.Server{Handler: b}
			go hs.Serve(ln) //nolint:errcheck // closed below
			stops = append(stops, func() { hs.Close() })
			backends = append(backends, b)
			addrs = append(addrs, ln.Addr().String())
		}
		rt = route.New(route.Config{Backends: addrs, Telemetry: telemetry.New(telemetry.NewRegistry(), nil)})
		stops = append(stops, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rt.Drain(ctx) //nolint:errcheck // teardown
		})
		front = rt
	}
	forwarded := func() int64 {
		if rt == nil {
			return 0
		}
		n := int64(0)
		for _, b := range rt.StatzSnapshot().Backends {
			n += b.Forwarded
		}
		return n
	}
	one := func(k int, measure bool) error {
		req := w.next(k)
		hr, err := http.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(req.body))
		if err != nil {
			return err
		}
		hr.Header.Set("Content-Type", "application/json")
		bw := &bufferWriter{h: http.Header{}, status: http.StatusOK}
		t0 := time.Now()
		front.ServeHTTP(bw, hr)
		total := time.Since(t0).Nanoseconds()
		kind := outcomeOK
		var resp batchResponse
		switch {
		case bw.status != http.StatusOK:
			kind = failStatus
		case json.Unmarshal(bw.buf.Bytes(), &resp) != nil:
			kind = failUndecodable
		default:
			kind = compareVerdicts(resp.Results, req.want)
		}
		hp.tally.add(kind)
		if !measure {
			return nil
		}
		var backendNS int64
		for _, b := range backends {
			backendNS += b.last.Swap(0)
		}
		hp.handlerUS = append(hp.handlerUS, float64(backendNS)/1e3)
		if rt != nil {
			hp.hopUS = append(hp.hopUS, float64(total-backendNS)/1e3)
		}
		return nil
	}
	for k := 0; k < w.warm; k++ {
		if err := one(k, false); err != nil {
			return nil, err
		}
	}
	for _, b := range backends {
		b.last.Store(0)
	}
	f0 := forwarded()
	deadline := time.Now().Add(budget)
	for k := w.warm; k < w.warm+minReplay || time.Now().Before(deadline); k++ {
		if err := one(k, true); err != nil {
			return nil, err
		}
	}
	hp.forwarded = forwarded() - f0
	return hp, nil
}
