package serve

import (
	"hash/maphash"
	"sync"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The prepared-request cache's bounds.  They are constants rather than
// Config fields, like the router's fingerprint cache: the cache exists for
// the compile-server pattern of one body asked again and again, which any
// small table serves, and a knob would only let an operator trade the
// bounded-memory guarantee for nothing measurable.
const (
	// preparedSeenSlots sizes the direct-mapped table of first sightings.
	preparedSeenSlots = 4096
	// preparedMaxEntries and preparedMaxBytes bound the admitted entries
	// and the request-body bytes they retain; an insert that would pass
	// either resets the whole map.
	preparedMaxEntries = 64
	preparedMaxBytes   = 1 << 20
)

// prepared is one request body's decoded, parsed, analyzed and expanded
// form: everything runBatch needs, and nothing that depends on the engine
// or on when the request runs.  Cached values are shared by concurrent
// requests and never written after prepare returns.
type prepared struct {
	// The decoded request's per-run knobs.
	timeoutMS, deadlineMS int64
	verify                bool

	ax      *axiom.Set
	queries []core.Query
	// results is the response's per-query prefix — line, echoed query and
	// rendered accesses — with the verdict fields left for runBatch.
	results []wire.QueryResult

	// span names the preparation span ("serve.analyze" or "serve.rawparse")
	// and label is its identifying attribute (fn or axiom_set).
	span  string
	label telemetry.Attr
}

// endSpan closes the preparation span with the attributes both the miss and
// the hit path report.
func (p *prepared) endSpan(sp telemetry.Span, cached bool) {
	sp.End(p.label, telemetry.Int("queries", len(p.queries)), telemetry.Bool("cached", cached))
}

// preparedCache maps exact request bodies to their prepared form, so a
// repeated /v1/batch body skips JSON decode, program parse, analysis and
// query expansion (raw mode: axiom parse and query building).  The key is
// the body itself, compared byte for byte, so a hash collision can never
// serve another body's queries.
//
// Admission is on second sighting: a body enters the map only if its hash
// already sits in the direct-mapped seen table, so a stream of distinct
// programs retains nothing but 4096 hashes.  Errors are never offered.
type preparedCache struct {
	seed maphash.Seed

	mu    sync.RWMutex
	seen  [preparedSeenSlots]uint64 // body hashes, 0 = empty slot
	m     map[string]*prepared
	bytes int // body bytes retained by m's keys

	cHits, cMisses, cResets *telemetry.Counter
}

func newPreparedCache(tel *telemetry.Set) *preparedCache {
	return &preparedCache{
		seed:    maphash.MakeSeed(),
		m:       make(map[string]*prepared),
		cHits:   tel.Counter("serve.prepared_hits"),
		cMisses: tel.Counter("serve.prepared_misses"),
		cResets: tel.Counter("serve.prepared_resets"),
	}
}

// get returns body's prepared form, or nil on a miss.
func (c *preparedCache) get(body []byte) *prepared {
	c.mu.RLock()
	p := c.m[string(body)]
	c.mu.RUnlock()
	if p != nil {
		c.cHits.Add(1)
	} else {
		c.cMisses.Add(1)
	}
	return p
}

// put offers a successfully prepared body.  A first sighting only records
// the body's hash; a second admits it, resetting the map first when the
// entry or byte bound would otherwise be passed.
func (c *preparedCache) put(body []byte, p *prepared) {
	if len(body) > preparedMaxBytes {
		return
	}
	h := maphash.Bytes(c.seed, body) | 1 // never 0, the empty-slot mark
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := &c.seen[h%preparedSeenSlots]
	if *slot != h {
		*slot = h
		return
	}
	if _, ok := c.m[string(body)]; ok {
		return // a concurrent miss on the same body got here first
	}
	if len(c.m) >= preparedMaxEntries || c.bytes+len(body) > preparedMaxBytes {
		clear(c.m)
		c.bytes = 0
		c.cResets.Add(1)
	}
	c.m[string(body)] = p
	c.bytes += len(body)
}

// size reports the admitted entries and the body bytes they retain.
func (c *preparedCache) size() (entries, bytes int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m), c.bytes
}
