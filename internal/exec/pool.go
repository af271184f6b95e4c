// Package exec is the execution tier of the query plane: the bounded pool
// of warm per-axiom-set engines and the raw-query builder that turns wire
// queries into core ones.  It knows nothing about HTTP or admission —
// internal/serve composes it under both.
package exec

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/engine"
	"repro/internal/prover"
	"repro/internal/telemetry"
)

// PoolConfig sizes a Pool and the engines it builds.
type PoolConfig struct {
	// Workers is each engine's pool width (minimum 1).
	Workers int
	// QueryTimeout is the engines' default per-query proof-search bound.
	QueryTimeout time.Duration
	// MaxEngines bounds the resident engine population (LRU beyond; ≤0
	// means unbounded).
	MaxEngines int
	// DFAShardCap and MemoShardCap bound the shared caches' shards.
	DFAShardCap  int
	MemoShardCap int
	// VerifyProofs re-checks every prover-backed No independently.
	VerifyProofs bool
	// Preload, when non-nil, preseeds every engine the pool builds with a
	// compiled automata artifact.
	Preload *automata.Artifact
}

// Pool keeps one warm engine.Engine — and therefore one shared DFA cache
// and one proof memo — per axiom set, reclaiming the least-recently-used
// engine when the population exceeds its cap.  Entries are keyed by the
// process-local axiom.Set.ID().  Eviction only unlinks the engine from the
// pool: an in-flight batch still running on it finishes normally and the
// garbage collector reclaims the caches afterwards, so no request ever
// observes a half-dead engine.
type Pool struct {
	cfg PoolConfig
	tel *telemetry.Set

	mu      sync.Mutex
	seq     int64
	entries map[uint64]*poolEntry

	evicted atomic.Int64
	cCold   *telemetry.Counter
	cWarm   *telemetry.Counter
}

// poolEntry is one resident engine plus its bookkeeping.
type poolEntry struct {
	id      uint64 // axiom.Set.ID() identity (the pool's map key)
	key     string // axiom.Set.Key() fingerprint, kept for /statz ordering
	name    string // human-readable axiom-set name
	eng     *engine.Engine
	lastUse int64 // pool sequence number of the most recent get
	uses    int64
}

// NewPool builds an empty pool.
func NewPool(cfg PoolConfig, tel *telemetry.Set) *Pool {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &Pool{
		cfg:     cfg,
		tel:     tel,
		entries: make(map[uint64]*poolEntry),
		cCold:   tel.Counter("serve.engine_cold"),
		cWarm:   tel.Counter("serve.engine_warm"),
	}
}

// Get returns the warm engine for the axiom set, building one — preseeded
// from the configured Preload artifact — on a cold miss.  cold reports
// whether this call built it.
func (p *Pool) Get(ax *axiom.Set) (eng *engine.Engine, cold bool) {
	id := ax.ID()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	if e, ok := p.entries[id]; ok {
		e.lastUse = p.seq
		e.uses++
		p.cWarm.Add(1)
		return e.eng, false
	}
	e := &poolEntry{
		id:   id,
		key:  ax.Key(),
		name: ax.StructName,
		eng: engine.New(ax, engine.Options{
			Workers:      p.cfg.Workers,
			QueryTimeout: p.cfg.QueryTimeout,
			Prover:       prover.Options{Telemetry: p.tel},
			VerifyProofs: p.cfg.VerifyProofs,
			Telemetry:    p.tel,
			DFAShardCap:  p.cfg.DFAShardCap,
			MemoShardCap: p.cfg.MemoShardCap,
			Preload:      p.cfg.Preload,
		}),
		lastUse: p.seq,
		uses:    1,
	}
	p.entries[id] = e
	p.cCold.Add(1)
	for p.cfg.MaxEngines > 0 && len(p.entries) > p.cfg.MaxEngines {
		var lru *poolEntry
		for _, cand := range p.entries {
			if cand != e && (lru == nil || cand.lastUse < lru.lastUse) {
				lru = cand
			}
		}
		if lru == nil {
			break
		}
		delete(p.entries, lru.id)
		p.evicted.Add(1)
	}
	return e.eng, true
}

// View is a read-only copy of one resident engine's bookkeeping, taken
// under the pool lock (the mutable lastUse/uses fields must not be read
// while another Get mutates them).
type View struct {
	Key  string
	Name string
	Eng  *engine.Engine
	Uses int64
}

// Snapshot returns the resident entries sorted by name then key, for the
// /statz report.
func (p *Pool) Snapshot() []View {
	p.mu.Lock()
	out := make([]View, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, View{Key: e.key, Name: e.name, Eng: e.eng, Uses: e.uses})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Len reports the resident engine count.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Evicted reports how many engines the LRU has reclaimed.
func (p *Pool) Evicted() int64 { return p.evicted.Load() }
