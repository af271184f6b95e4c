// Command aptserved is the long-lived dependence-query daemon: it serves
// POST /v1/batch (aptdep's -batch line format as JSON) over warm
// per-axiom-set engines, so the DFA cache and proof memo survive across
// requests instead of being rebuilt cold by every CLI invocation.
//
// Server mode:
//
//	aptserved -addr :8080 -workers 4
//
// Endpoints: POST /v1/batch, GET /healthz, GET /metrics (Prometheus text
// exposition), GET /metrics.json (telemetry snapshot), GET /statz
// (admission + per-engine cache state), GET /debug/flightrecorder (the K
// slowest + recent degraded request traces).  A full admission queue sheds
// load with 429 + Retry-After; SIGTERM/SIGINT drains in-flight batches
// before exiting; SIGQUIT dumps the flight recorder to stderr without
// stopping.  -access-log writes one JSONL line per request.
//
// Router mode turns the same binary into the cluster's routing tier: a
// consistent-hash router that shards /v1/batch traffic across backends by
// axiom-set fingerprint, with health probing, failover and optional hedged
// retries.  -backends fixes the ring's membership for the process lifetime:
//
//	aptserved -router -backends 127.0.0.1:8081,127.0.0.1:8082 -addr :8080
//	aptserved -router -backends ... -hedge 25ms   # hedge tail requests
//
// The binary is only a server or a router; benchmark/ drives it under load.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/automata"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global bindings, so tests can drive the
// daemon (including its signal-driven drain) in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aptserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen `address`")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "engine pool `width` per axiom set")
	queryTimeout := fs.Duration("query-timeout", serve.DefaultQueryTimeout, "default per-query proof-search bound")
	maxDeadline := fs.Duration("max-deadline", serve.DefaultMaxDeadline, "cap on any request's total deadline")
	concurrency := fs.Int("concurrency", 0, "requests answered at once (0 = GOMAXPROCS)")
	queue := fs.Int("queue", serve.DefaultQueueDepth, "admitted requests that may wait before shedding with 429")
	engines := fs.Int("engines", serve.DefaultMaxEngines, "warm per-axiom-set engines kept (LRU beyond)")
	shardCap := fs.Int("shard-cap", serve.DefaultShardCap, "per-shard entry cap for the DFA cache, decision memo, and proof memo")
	maxQueries := fs.Int("max-queries", serve.DefaultMaxQueries, "expanded-query limit per request")
	verify := fs.Bool("verify", false, "independently re-check every prover-backed No")
	portFile := fs.String("port-file", "", "write the bound address to `file` once listening (for scripts driving :0)")
	accessLog := fs.String("access-log", "", "append one JSONL access-log line per request to `file` (\"-\" for stderr)")
	flightK := fs.Int("flight-k", 0, "slowest requests the flight recorder retains (0 = default)")
	flightRing := fs.Int("flight-ring", 0, "degraded requests the flight recorder's ring retains (0 = default)")
	preload := fs.String("preload", "", "compiled automata artifact `file` (from aptc) preseeding every engine's DFA cache")

	router := fs.Bool("router", false, "run as a consistent-hash cluster router over -backends instead of a single-node server")
	backends := fs.String("backends", "", "router: comma-separated backend addresses (host:port or http://...)")
	hedge := fs.Duration("hedge", 0, "router: hedged-retry delay — duplicate a request to the shard's next backend if the owner has not answered within this delay (0 disables)")

	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatalf := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "aptserved: "+format+"\n", fargs...)
		return 2
	}
	if fs.NArg() != 0 {
		return fatalf("unexpected arguments %q", fs.Args())
	}

	cfg := serve.Config{
		Workers:       *workers,
		QueryTimeout:  *queryTimeout,
		MaxDeadline:   *maxDeadline,
		MaxConcurrent: *concurrency,
		QueueDepth:    *queue,
		MaxEngines:    *engines,
		DFAShardCap:   *shardCap,
		MemoShardCap:  *shardCap,
		MaxQueries:    *maxQueries,
		VerifyProofs:  *verify,
		FlightK:       *flightK,
		FlightRing:    *flightRing,
		Telemetry:     telemetry.New(telemetry.NewRegistry(), nil),
	}
	if *preload != "" {
		art, err := automata.LoadArtifact(*preload)
		if err != nil {
			// A bad artifact degrades startup to cold compilation; it must
			// never stop the server or change a verdict.
			fmt.Fprintf(stderr, "aptserved: preload %s: %v (continuing with cold caches)\n", *preload, err)
		} else {
			cfg.Preload = art
			fmt.Fprintf(stderr, "aptserved: preloaded %s: %d DFAs, %d decisions\n", *preload, len(art.DFAs), len(art.Ops))
		}
	}
	if *accessLog != "" {
		if *accessLog == "-" {
			cfg.AccessLog = telemetry.NewTraceWriter(stderr)
		} else {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fatalf("access-log: %v", err)
			}
			defer f.Close()
			cfg.AccessLog = telemetry.NewTraceWriter(f)
		}
	}

	if *router {
		var addrs []string
		for _, a := range strings.Split(*backends, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return fatalf("-router needs -backends")
		}
		return runRouter(route.Config{
			Backends:   addrs,
			HedgeDelay: *hedge,
			Telemetry:  cfg.Telemetry,
			AccessLog:  cfg.AccessLog,
		}, *addr, *portFile, stdout, stderr)
	}
	return runServer(cfg, *addr, *portFile, stdout, stderr)
}

// runServer listens, serves until SIGTERM/SIGINT, then drains in-flight
// requests and exits 0 on a clean drain.  SIGQUIT dumps the flight recorder
// (slowest + degraded request traces) to stderr and keeps serving — the
// "what just got slow?" escape hatch for a live daemon.
func runServer(cfg serve.Config, addr, portFile string, stdout, stderr io.Writer) int {
	srv := serve.New(cfg)
	return runDaemon(daemon{
		handler:   srv,
		banner:    func(a net.Addr) string { return fmt.Sprintf("listening on %s", a) },
		dumpTitle: "flight recorder dump",
		dump:      func() any { return srv.FlightSnapshot() },
		drain:     srv.Drain,
		counts: func() (int64, int64, int64, int64) {
			z := srv.StatzSnapshot()
			return z.Accepted, z.Completed, z.Shed, z.RefusedDraining
		},
	}, addr, portFile, stdout, stderr)
}

// runRouter is runServer for the routing tier: it routes instead of
// serving, and SIGQUIT dumps the router statz (ring, hedges, per-backend
// health) instead of the flight recorder.
func runRouter(cfg route.Config, addr, portFile string, stdout, stderr io.Writer) int {
	rt := route.New(cfg)
	return runDaemon(daemon{
		handler:   rt,
		banner:    func(a net.Addr) string { return fmt.Sprintf("routing on %s across %d backends", a, len(cfg.Backends)) },
		dumpTitle: "router statz dump",
		dump:      func() any { return rt.StatzSnapshot() },
		drain:     rt.Drain,
		counts: func() (int64, int64, int64, int64) {
			z := rt.StatzSnapshot()
			return z.Accepted, z.Completed, z.Shed, z.RefusedDraining
		},
	}, addr, portFile, stdout, stderr)
}

// daemon is what the server and router lifecycles differ in.
type daemon struct {
	handler   http.Handler
	banner    func(net.Addr) string // the listen line, after "aptserved: "
	dumpTitle string                // SIGQUIT dump heading
	dump      func() any            // SIGQUIT dump body
	drain     func(context.Context) error
	counts    func() (accepted, completed, shed, refused int64)
}

// runDaemon owns the signal lifecycle: listen, serve until SIGTERM/SIGINT,
// drain in-flight requests, exit 0 on a clean drain.  The signal handlers
// are installed before the listener is bound, so a SIGTERM sent as soon as
// the listen line (or the port file) appears always drains instead of
// killing the process.
func runDaemon(d daemon, addr, portFile string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	quitDone := make(chan struct{})
	go func() {
		defer close(quitDone)
		for range quit {
			enc, err := json.MarshalIndent(d.dump(), "", "  ")
			if err != nil {
				fmt.Fprintf(stderr, "aptserved: %s: %v\n", d.dumpTitle, err)
				continue
			}
			fmt.Fprintf(stderr, "aptserved: %s (SIGQUIT)\n%s\n", d.dumpTitle, enc)
		}
	}()
	defer func() { signal.Stop(quit); close(quit); <-quitDone }()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "aptserved: listen: %v\n", err)
		return 2
	}
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			fmt.Fprintf(stderr, "aptserved: port-file: %v\n", err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "aptserved: %s\n", d.banner(ln.Addr()))

	hs := &http.Server{Handler: d.handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "aptserved: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	fmt.Fprintln(stdout, "aptserved: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := d.drain(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	accepted, completed, shed, refused := d.counts()
	fmt.Fprintf(stdout, "aptserved: drained: %d accepted, %d completed, %d shed, %d refused during drain\n",
		accepted, completed, shed, refused)
	if drainErr != nil {
		fmt.Fprintf(stderr, "aptserved: drain: %v\n", drainErr)
		return 1
	}
	return 0
}
