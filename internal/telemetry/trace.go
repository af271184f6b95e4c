package telemetry

import (
	"context"
	"encoding/hex"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// Attr is one typed key/value attribute of a trace event.  The concrete
// constructors (String, Int, ...) avoid interface boxing so that building
// attributes never allocates.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
	f    float64
}

type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, kind: attrString, s: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, kind: attrInt, i: int64(v)} }

// Int64 builds an integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, kind: attrInt, i: v} }

// Float64 builds a float attribute (NaN/Inf serialize as null).
func Float64(k string, v float64) Attr { return Attr{Key: k, kind: attrFloat, f: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	a := Attr{Key: k, kind: attrBool}
	if v {
		a.i = 1
	}
	return a
}

// DurUS builds an integer attribute holding d in microseconds.
func DurUS(k string, d time.Duration) Attr { return Int64(k, d.Microseconds()) }

// TraceWriter emits structured events as JSON Lines: one object per line
// with monotonic "ts_us" (microseconds since the writer was created), a
// strictly increasing "seq", the event name "ev", and the event's
// attributes as top-level keys.  Spans add "dur_us", "span_id" and, below a
// root, "parent_id".  Safe for concurrent use; a nil *TraceWriter is a
// valid, disabled writer.
type TraceWriter struct {
	mu    sync.Mutex
	w     io.Writer
	buf   []byte
	start time.Time
	seq   int64
	err   error
}

// NewTraceWriter returns a writer emitting JSONL to w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: w, start: time.Now(), buf: make([]byte, 0, 256)}
}

// Err returns the first write error encountered, if any.
func (t *TraceWriter) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Emit writes one event line.
func (t *TraceWriter) Emit(event string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.emit(event, nil, attrs)
}

// emit writes one line; sp, when non-nil, is the finished span the line
// records.
func (t *TraceWriter) emit(event string, sp *Span, attrs []Attr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	b := t.buf[:0]
	b = append(b, `{"ts_us":`...)
	b = strconv.AppendInt(b, time.Since(t.start).Microseconds(), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, t.seq, 10)
	b = append(b, `,"ev":`...)
	b = strconv.AppendQuote(b, event)
	if sp != nil {
		b = append(b, `,"dur_us":`...)
		b = strconv.AppendInt(b, time.Since(sp.start).Microseconds(), 10)
		b = append(b, `,"span_id":"`...)
		b = hex.AppendEncode(b, sp.id[:])
		if !sp.parent.IsZero() {
			b = append(b, `","parent_id":"`...)
			b = hex.AppendEncode(b, sp.parent[:])
		}
		b = append(b, '"')
	}
	for _, a := range attrs {
		b = append(b, ',')
		b = strconv.AppendQuote(b, a.Key)
		b = append(b, ':')
		switch a.kind {
		case attrString:
			b = strconv.AppendQuote(b, a.s)
		case attrInt:
			b = strconv.AppendInt(b, a.i, 10)
		case attrFloat:
			if math.IsNaN(a.f) || math.IsInf(a.f, 0) {
				b = append(b, "null"...)
			} else {
				b = strconv.AppendFloat(b, a.f, 'g', -1, 64)
			}
		case attrBool:
			if a.i != 0 {
				b = append(b, "true"...)
			} else {
				b = append(b, "false"...)
			}
		}
	}
	b = append(b, '}', '\n')
	if _, err := t.w.Write(b); err != nil && t.err == nil {
		t.err = err
	}
	t.buf = b[:0]
}

// Span is a timed region of a trace, and the only span type.  A live span
// reports to exactly one collector when it ends: a *RequestTrace keeps it
// in the request's bounded span tree (what the flight recorder retains),
// a *TraceWriter writes it as one JSONL line.  Roots come from a collector
// (Set.Begin, RequestTrace.Begin) and children from their parent (Child).
// Spans are values; copying is fine.  The zero Span, and every child of
// it, is a valid no-op.
type Span struct {
	rt     *RequestTrace
	tw     *TraceWriter
	name   string
	id     SpanID
	parent SpanID
	start  time.Time
}

func openSpan(rt *RequestTrace, tw *TraceWriter, name string, parent SpanID) Span {
	return Span{rt: rt, tw: tw, name: name, id: newSpanID(), parent: parent, start: time.Now()}
}

// Child opens a span parented under s that reports to s's collector.
func (s Span) Child(name string) Span {
	if s.rt == nil && s.tw == nil {
		return Span{}
	}
	return openSpan(s.rt, s.tw, name, s.id)
}

// ID returns the span's id; it is zero exactly when the span is a no-op.
func (s Span) ID() SpanID { return s.id }

// RequestTrace returns the request trace s reports to (nil for a JSONL or
// no-op span), for the request-scoped books a span's owner keeps beyond
// the tree: the degradation profile and the trace id.
func (s Span) RequestTrace() *RequestTrace { return s.rt }

// End finishes the span: its collector records the name, ids, start,
// duration and the given attributes.
func (s Span) End(attrs ...Attr) {
	switch {
	case s.rt != nil:
		s.rt.record(s, attrs)
	case s.tw != nil:
		s.tw.emit(s.name, &s, attrs)
	}
}

// spanKey carries a Span through a context, so layers that only see a
// context.Context (the engine, and the prover below it) open their spans
// under the right parent.
type spanKey struct{}

// ContextWithSpan returns ctx carrying s as the parent for callees' spans.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the span ctx carries, or — without allocating —
// the zero no-op Span when it carries none.
func SpanFromContext(ctx context.Context) Span {
	s, _ := ctx.Value(spanKey{}).(Span)
	return s
}
