package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// Set bundles a metrics Registry with an optional TraceWriter — the single
// handle threaded through prover.Options, analysis.Options, parallel.Pool,
// and the CLIs.  A nil *Set is the disabled default: every method no-ops
// and every instrument it hands out is nil (itself a no-op).
type Set struct {
	metrics *Registry
	trace   *TraceWriter
}

// New bundles reg and tr; either may be nil to disable that half.
func New(reg *Registry, tr *TraceWriter) *Set {
	return &Set{metrics: reg, trace: tr}
}

// Enabled reports whether any instrumentation is active.
func (s *Set) Enabled() bool {
	return s != nil && (s.metrics != nil || s.trace != nil)
}

// Metrics returns the registry (nil when disabled).
func (s *Set) Metrics() *Registry {
	if s == nil {
		return nil
	}
	return s.metrics
}

// TraceEnabled reports whether trace events will be written.  Hot paths
// guard expensive attribute construction (goal rendering, time stamps)
// behind this.
func (s *Set) TraceEnabled() bool { return s != nil && s.trace != nil }

// Counter resolves a named counter (nil when metrics are disabled).
func (s *Set) Counter(name string) *Counter { return s.Metrics().Counter(name) }

// Max resolves a named maximum tracker (nil when metrics are disabled).
func (s *Set) Max(name string) *Max { return s.Metrics().Max(name) }

// Histogram resolves a named histogram (nil when metrics are disabled).
func (s *Set) Histogram(name string) *Histogram { return s.Metrics().Histogram(name) }

// Window resolves a named sliding-window histogram (nil when metrics are
// disabled).
func (s *Set) Window(name string) *WindowHistogram { return s.Metrics().Window(name) }

// Emit writes one trace event (no-op when tracing is disabled).
func (s *Set) Emit(event string, attrs ...Attr) {
	if s == nil || s.trace == nil {
		return
	}
	s.trace.Emit(event, attrs...)
}

// Begin opens a root span written to the trace writer when it ends (the
// zero no-op Span when tracing is disabled).
func (s *Set) Begin(event string) Span {
	if s == nil || s.trace == nil {
		return Span{}
	}
	return openSpan(nil, s.trace, event, SpanID{})
}

// phaseTiming is one completed pipeline phase.
type phaseTiming struct {
	Name string
	Dur  time.Duration
}

// Phases times named sequential pipeline phases (parse, analyze, query, …),
// recording each as a "pipeline.phase" span and a *_ns histogram, and keeps
// the ordered wall-clock list for the -stats summary.  Works with a nil Set
// (timings are still collected locally).  Not safe for concurrent use.
type Phases struct {
	tel *Set
	rec []phaseTiming
}

// NewPhases returns a phase timer reporting through tel (which may be nil).
func NewPhases(tel *Set) *Phases { return &Phases{tel: tel} }

// Run times f as the named phase, propagating its error.
func (p *Phases) Run(name string, f func() error) error {
	sp := p.tel.Begin("pipeline.phase")
	start := time.Now()
	err := f()
	d := time.Since(start)
	p.rec = append(p.rec, phaseTiming{Name: name, Dur: d})
	p.tel.Histogram("pipeline." + name + "_ns").Observe(d.Nanoseconds())
	sp.End(String("phase", name), Bool("ok", err == nil))
	return err
}

// Summary renders the wall-clock-per-phase table.
func (p *Phases) Summary() string {
	var b strings.Builder
	b.WriteString("wall-clock per phase:\n")
	var total time.Duration
	for _, r := range p.rec {
		fmt.Fprintf(&b, "  %-44s %12v\n", r.Name, r.Dur.Round(time.Microsecond))
		total += r.Dur
	}
	fmt.Fprintf(&b, "  %-44s %12v\n", "total", total.Round(time.Microsecond))
	return b.String()
}
