package route

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// BackendStatz is one backend's entry in the router's /statz body.
type BackendStatz struct {
	Addr      string `json:"addr"`
	Up        bool   `json:"up"`
	Forwarded int64  `json:"forwarded"`
}

// Statz is the router's /statz body.
type Statz struct {
	UptimeMS        int64          `json:"uptime_ms"`
	Draining        bool           `json:"draining"`
	Accepted        int64          `json:"accepted"`
	Completed       int64          `json:"completed"`
	Inflight        int64          `json:"inflight"`
	Shed            int64          `json:"shed"`
	RefusedDraining int64          `json:"refused_draining"`
	Panics          int64          `json:"panics"`
	HedgesWon       int64          `json:"hedges_won"`
	HedgesLost      int64          `json:"hedges_lost"`
	HedgesSpared    int64          `json:"hedges_spared"`
	Backends        []BackendStatz `json:"backends"`
}

// StatzSnapshot assembles the /statz body (exported for aptserved's drain
// summary and SIGQUIT dump, the benchmark's traced replay, and the cluster
// soaks).
func (rt *Router) StatzSnapshot() Statz {
	accepted, completed, shed, refused := rt.adm.Counts()
	z := Statz{
		UptimeMS:        time.Since(rt.start).Milliseconds(),
		Draining:        rt.Draining(),
		Accepted:        accepted,
		Completed:       completed,
		Inflight:        rt.adm.Inflight(),
		Shed:            shed,
		RefusedDraining: refused,
		Panics:          rt.panics.Load(),
		HedgesWon:       rt.hedgeWon.Load(),
		HedgesLost:      rt.hedgeLost.Load(),
		HedgesSpared:    rt.hedgeSpared.Load(),
	}
	for _, b := range rt.members {
		z.Backends = append(z.Backends, BackendStatz{Addr: b.addr, Up: b.up.Load(), Forwarded: b.forwarded.Load()})
	}
	return z
}

func (rt *Router) handleStatz(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, rt.StatzSnapshot())
}

// handleMetrics serves Prometheus text exposition: the telemetry registry's
// instruments plus the router-level families below.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.tel.Metrics().WritePrometheus(w) //nolint:errcheck // client hangup
	rt.writePromRouter(w)
}

func (rt *Router) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, rt.tel.Metrics().Snapshot())
}

// writePromRouter renders the router families: lifecycle counters, the
// per-backend up/forwarded series, and the hedge outcomes.
func (rt *Router) writePromRouter(w io.Writer) {
	bw := bufio.NewWriter(w)
	counter := func(name, help string, v int64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	accepted, completed, shed, refused := rt.adm.Counts()
	counter("apt_router_accepted_total", "Requests admitted by the router.", accepted)
	counter("apt_router_completed_total", "Requests answered through the router.", completed)
	counter("apt_router_shed_total", "Requests shed with 429 by the router's own admission control.", shed)
	counter("apt_router_refused_draining_total", "Requests refused because the router was draining.", refused)
	counter("apt_router_panics_total", "Router handler panics isolated into 500s.", rt.panics.Load())

	fmt.Fprintf(bw, "# HELP apt_router_inflight Requests admitted and not yet answered.\n# TYPE apt_router_inflight gauge\napt_router_inflight %d\n",
		rt.adm.Inflight())

	fmt.Fprintf(bw, "# HELP apt_hedge_total Hedging outcomes: won (hedge answered first), lost (primary answered after the hedge fired), spared (no hedge needed).\n# TYPE apt_hedge_total counter\n")
	for _, o := range []struct {
		outcome string
		v       int64
	}{
		{"won", rt.hedgeWon.Load()},
		{"lost", rt.hedgeLost.Load()},
		{"spared", rt.hedgeSpared.Load()},
	} {
		fmt.Fprintf(bw, "apt_hedge_total{outcome=%q} %d\n", o.outcome, o.v)
	}

	fmt.Fprintf(bw, "# HELP apt_backend_up Whether the backend's last health probe answered 200.\n# TYPE apt_backend_up gauge\n")
	for _, b := range rt.members {
		up := 0
		if b.up.Load() {
			up = 1
		}
		fmt.Fprintf(bw, "apt_backend_up{backend=\"%s\"} %d\n", telemetry.PromEscapeLabel(b.addr), up)
	}
	fmt.Fprintf(bw, "# HELP apt_backend_forwarded_total Requests forwarded to the backend (hedges and failovers included).\n# TYPE apt_backend_forwarded_total counter\n")
	for _, b := range rt.members {
		fmt.Fprintf(bw, "apt_backend_forwarded_total{backend=\"%s\"} %d\n", telemetry.PromEscapeLabel(b.addr), b.forwarded.Load())
	}
	bw.Flush() //nolint:errcheck // client hangup
}
