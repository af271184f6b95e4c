package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/prover"
	"repro/internal/telemetry"
)

// Options configures an Engine.  The zero value selects a single worker
// with default prover budgets and no per-query timeout.
type Options struct {
	// Workers is the pool width Batch fans queries across (minimum 1).
	Workers int
	// QueryTimeout, when positive, bounds each query's wall-clock proof
	// search; an expired query degrades to Maybe (never to an unsound No).
	QueryTimeout time.Duration
	// Prover configures the per-worker provers (budgets, ablations,
	// telemetry).  DFACache and Interrupt are overwritten by the engine.
	Prover prover.Options
	// VerifyProofs re-checks every prover-backed No with the independent
	// proof checker, as on the sequential Tester.
	VerifyProofs bool
	// Telemetry receives the engine's batch/memo/cache counters (nil, the
	// default, disables them).  Also passed to the worker provers unless
	// Prover.Telemetry is already set.
	Telemetry *telemetry.Set
	// DFAShards and DFAShardCap size the shared DFA cache (defaults:
	// automata.DefaultSharedShards, unbounded shards).
	DFAShards   int
	DFAShardCap int
	// MemoShards and MemoShardCap size the cross-query proof memo
	// (defaults: DefaultMemoShards, unbounded shards).  Long-lived
	// processes should set both caps — an unbounded memo is fine for a
	// one-shot batch and a leak for a server.
	MemoShards   int
	MemoShardCap int
	// Preload, when non-nil, preseeds the shared DFA cache and the proof
	// memo from a compiled automata artifact (see cmd/aptc), so the engine
	// boots with the artifact's working set already warm instead of paying
	// cold subset constructions and proof searches on first queries.  Goal
	// verdicts are scoped to their axiom-set fingerprint and never consulted
	// under a different set.
	Preload *automata.Artifact
}

// Stats is a point-in-time snapshot of the engine's shared state.
type Stats struct {
	// Batches and Queries count Batch calls and the queries they carried.
	Batches int64
	Queries int64
	// The degraded-toward-Maybe counters, split by the interrupt guard's
	// three reasons so a timed-out query stays distinguishable from a
	// deadline-expired or canceled one: Timeouts counts per-query
	// QueryTimeout expiries, DeadlineExpired the batch context's own
	// deadline passing, Canceled outright context cancellation.  Each
	// degraded query increments exactly one of the three.
	Timeouts        int64
	DeadlineExpired int64
	Canceled        int64
	// Memo is the cross-query proof memo's counters.
	Memo MemoStats
	// DFA is the shared compilation cache's counters.
	DFA automata.CacheStats
}

// Engine answers batches of dependence queries concurrently while keeping
// every verdict identical to the sequential core.Tester's (see package doc;
// differential_test.go enforces the equivalence).  An Engine is safe for
// concurrent use, though a single Batch already saturates its pool.
type Engine struct {
	axioms *axiom.Set
	opts   Options
	pool   *parallel.Pool
	dfas   *automata.SharedCache
	memo   *Memo

	batches   atomic.Int64
	queries   atomic.Int64
	timeouts  atomic.Int64
	deadlines atomic.Int64
	canceled  atomic.Int64

	cBatches   *telemetry.Counter
	cQueries   *telemetry.Counter
	cTimeouts  *telemetry.Counter
	cDeadlines *telemetry.Counter
	cCanceled  *telemetry.Counter
}

// New builds an engine over the default axiom set.  Queries carrying their
// own Axioms (validity windows) are honored exactly as on the sequential
// tester; the shared caches key by axiom-set fingerprint, so windows with
// equal alphabets still share compiled DFAs.
func New(axioms *axiom.Set, opts Options) *Engine {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	tel := opts.Telemetry
	if opts.Prover.Telemetry == nil {
		opts.Prover.Telemetry = tel
	}
	dfas := automata.NewSharedCache(opts.Prover.DFAStateLimit, opts.DFAShards, opts.DFAShardCap)
	dfas.SetTelemetry(tel)
	memo := NewMemo(opts.MemoShards, opts.MemoShardCap, tel)
	if opts.Preload != nil {
		dfas.Preseed(opts.Preload)
		memo.Preseed(opts.Preload)
	}
	return &Engine{
		axioms:     axioms,
		opts:       opts,
		pool:       parallel.NewPool(opts.Workers).SetTelemetry(tel),
		dfas:       dfas,
		memo:       memo,
		cBatches:   tel.Counter("engine.batches"),
		cQueries:   tel.Counter("engine.queries"),
		cTimeouts:  tel.Counter("engine.degraded.query_timeout"),
		cDeadlines: tel.Counter("engine.degraded.request_deadline"),
		cCanceled:  tel.Counter("engine.degraded.canceled"),
	}
}

// Axioms returns the engine's default axiom set.
func (e *Engine) Axioms() *axiom.Set { return e.axioms }

// Workers returns the engine's pool width.
func (e *Engine) Workers() int { return e.opts.Workers }

// Stats snapshots the engine's counters and shared-cache state.  The
// engine and its caches keep their own atomics beside the telemetry
// counters because the two answer different questions: a registry counter
// is the process-lifetime sum over every engine sharing the registry (and
// outlives an engine the pool evicts), while these are this one engine's
// numbers, which /statz and the per-set metric families report.  They also
// stay readable when telemetry is disabled and the instruments are nil.
func (e *Engine) Stats() Stats {
	return Stats{
		Batches:         e.batches.Load(),
		Queries:         e.queries.Load(),
		Timeouts:        e.timeouts.Load(),
		DeadlineExpired: e.deadlines.Load(),
		Canceled:        e.canceled.Load(),
		Memo:            e.memo.Stats(),
		DFA:             e.dfas.Stats(),
	}
}

// Memo exposes the cross-query proof memo (for stats reporting).
func (e *Engine) Memo() *Memo { return e.memo }

// DFACache exposes the shared compilation cache (for stats reporting).
func (e *Engine) DFACache() *automata.SharedCache { return e.dfas }

// interruptGuard is one worker's prover interrupt hook: it trips on batch
// cancellation, on the batch context's own deadline (a server's per-request
// deadline), or on the running query's timeout — and records which, so the
// degraded outcome can say why.
type interruptGuard struct {
	ctx      context.Context
	deadline time.Time // zero when no per-query timeout
	timedOut bool      // the per-query timeout expired
	expired  bool      // the batch context's deadline passed
	canceled bool      // the batch context was canceled outright
}

// tripped is polled by the prover mid-search (prover.Options.Interrupt).
func (g *interruptGuard) tripped() bool {
	if g.canceled || g.timedOut || g.expired {
		return true
	}
	select {
	case <-g.ctx.Done():
		if errors.Is(g.ctx.Err(), context.DeadlineExceeded) {
			g.expired = true
		} else {
			g.canceled = true
		}
		return true
	default:
	}
	if !g.deadline.IsZero() && !time.Now().Before(g.deadline) {
		g.timedOut = true
		return true
	}
	return false
}

// arm resets the guard for the next query.
func (g *interruptGuard) arm(timeout time.Duration) {
	g.timedOut = false
	g.expired = false
	g.canceled = false
	if timeout > 0 {
		g.deadline = time.Now().Add(timeout)
	} else {
		g.deadline = time.Time{}
	}
}

// Batch answers every query, fanning the slice across the pool.  The
// result slice is index-aligned with queries — results[i] answers
// queries[i] regardless of which worker ran it or in what order — and the
// verdicts are those the sequential Tester would produce, provided budgets
// do not bind (a query interrupted by ctx or QueryTimeout degrades to
// Maybe, the sound direction).  Queries not yet started when ctx is
// canceled are answered Maybe without searching.
func (e *Engine) Batch(ctx context.Context, queries []core.Query) []core.Outcome {
	return e.BatchTimeout(ctx, queries, e.opts.QueryTimeout)
}

// BatchOptions are per-call additions to the engine's Options.
type BatchOptions struct {
	// VerifyProofs re-checks this batch's prover-backed Nos with the
	// independent proof checker even when the engine was built without
	// Options.VerifyProofs.  It can add checking, never remove it.
	VerifyProofs bool
}

// BatchTimeout is Batch with a per-call override of the per-query timeout
// (perQuery <= 0 disables it for this call) and optional per-call
// BatchOptions.  A server uses this to honor a client-chosen budget and a
// client's request for proof checking without rebuilding the engine; the
// warm caches are shared either way.  A deadline on ctx bounds the whole
// batch: queries still searching when it passes degrade to Maybe with a
// deadline reason, exactly like a per-query timeout (and unlike an outright
// cancellation).
func (e *Engine) BatchTimeout(ctx context.Context, queries []core.Query, perQuery time.Duration, bo ...BatchOptions) []core.Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	verify := e.opts.VerifyProofs
	for _, o := range bo {
		verify = verify || o.VerifyProofs
	}
	e.batches.Add(1)
	e.queries.Add(int64(len(queries)))
	e.cBatches.Add(1)
	e.cQueries.Add(int64(len(queries)))
	results := make([]core.Outcome, len(queries))
	parent := telemetry.SpanFromContext(ctx)
	e.pool.ForEachChunk(len(queries), func(lo, hi int) {
		ws := parent.Child("engine.worker")
		guard := &interruptGuard{ctx: ctx}
		opts := e.opts.Prover
		opts.DFACache = e.dfas
		opts.Interrupt = guard.tripped
		opts.Parent = ws
		tester := core.NewTester(e.axioms, opts).SetProofMemo(e.memo)
		tester.VerifyProofs = verify
		for i := lo; i < hi; i++ {
			results[i] = e.runOne(tester, guard, queries[i], perQuery)
		}
		ws.End(telemetry.Int("queries", hi-lo))
	})
	return results
}

// degrade books one query's degradation under reason — on the engine's
// split counters and, when the batch context carries a request trace's
// span, on the request's degradation profile (which is what marks the
// request for the flight recorder).
func (e *Engine) degrade(ctx context.Context, reason telemetry.DegradeReason) {
	switch reason {
	case telemetry.DegradeQueryTimeout:
		e.timeouts.Add(1)
		e.cTimeouts.Add(1)
	case telemetry.DegradeRequestDeadline:
		e.deadlines.Add(1)
		e.cDeadlines.Add(1)
	case telemetry.DegradeCanceled:
		e.canceled.Add(1)
		e.cCanceled.Add(1)
	}
	telemetry.SpanFromContext(ctx).RequestTrace().NoteDegraded(reason)
}

// runOne answers one query on the worker's tester, degrading to Maybe with
// an explanatory reason when the guard trips.
func (e *Engine) runOne(tester *core.Tester, guard *interruptGuard, q core.Query, perQuery time.Duration) core.Outcome {
	guard.arm(perQuery)
	if guard.tripped() {
		switch {
		case guard.canceled:
			e.degrade(guard.ctx, telemetry.DegradeCanceled)
			return core.Outcome{
				Result: core.Maybe,
				Kind:   core.Classify(q.S, q.T),
				Reason: fmt.Sprintf("batch canceled before query ran (%v); dependence assumed", guard.ctx.Err()),
			}
		case guard.expired:
			e.degrade(guard.ctx, telemetry.DegradeRequestDeadline)
			return core.Outcome{
				Result: core.Maybe,
				Kind:   core.Classify(q.S, q.T),
				Reason: "request deadline expired before query ran; dependence assumed",
			}
		}
	}
	out := tester.DepTest(q)
	// A guard trip can only have weakened the answer toward Maybe (the
	// prover maps interrupts to Exhausted); make the reason say why.  A
	// verdict reached before the trip stands untouched.
	if out.Result == core.Maybe {
		switch {
		case guard.canceled:
			e.degrade(guard.ctx, telemetry.DegradeCanceled)
			out.Reason = fmt.Sprintf("batch canceled mid-search (%v); dependence assumed", guard.ctx.Err())
		case guard.expired:
			e.degrade(guard.ctx, telemetry.DegradeRequestDeadline)
			out.Reason = "request deadline expired mid-search; dependence assumed"
		case guard.timedOut:
			e.degrade(guard.ctx, telemetry.DegradeQueryTimeout)
			out.Reason = fmt.Sprintf("query timeout (%v) exhausted the search; dependence assumed", perQuery)
		}
	}
	return out
}
