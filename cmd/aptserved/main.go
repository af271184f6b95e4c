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
// axiom-set fingerprint, with health probing, failover, optional hedged
// retries, and warm engine handoff when the ring changes:
//
//	aptserved -router -backends 127.0.0.1:8081,127.0.0.1:8082 -addr :8080
//	aptserved -router -backends ... -hedge 25ms   # hedge tail requests
//
// Load-generator mode (also the BENCH_served.json producer):
//
//	aptserved -loadgen -self -program testdata/section33.c \
//	    -queries-file queries.txt -clients 8 -requests 64 -out BENCH_served.json
//
// -self starts an in-process server on a loopback port; point -addr at a
// running daemon instead to drive it remotely.  -loadgen -cluster runs the
// self-contained cluster scaling benchmark (BENCH_cluster.json): single
// backend vs an N-backend ring vs the same ring with hedging, all booted
// in-process.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/automata"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global bindings, so tests can drive the
// daemon (including its signal-driven drain) in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aptserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen `address` (server mode) or target base URL/host:port (loadgen mode)")
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

	loadgen := fs.Bool("loadgen", false, "run as a load-generating client instead of a server")
	self := fs.Bool("self", false, "loadgen: start an in-process server on a loopback port and drive it")
	program := fs.String("program", "", "loadgen: mini-C source `file` to query")
	fn := fs.String("fn", "", "loadgen: function to analyze (default: the only function)")
	queriesFile := fs.String("queries-file", "", "loadgen: `file` of batch query lines (default: 'loop'/'between' over every label is not inferred — required)")
	clients := fs.Int("clients", 8, "loadgen: concurrent clients")
	requests := fs.Int("requests", 64, "loadgen: total requests across all clients")
	timeoutMS := fs.Int64("timeout-ms", 0, "loadgen: per-query timeout_ms field (0 = server default)")
	deadlineMS := fs.Int64("deadline-ms", 0, "loadgen: per-request deadline_ms field (0 = server cap)")
	out := fs.String("out", "", "loadgen: write the latency/hit-rate report to `file` (default stdout only)")

	cluster := fs.Bool("cluster", false, "loadgen: run the cluster scaling benchmark (boots its own backends and routers in-process; writes the BENCH_cluster.json schema)")
	clusterBackends := fs.Int("cluster-backends", 4, "cluster: ring size of the scaled phase")
	clusterEngines := fs.Int("cluster-engines", 2, "cluster: per-backend warm-engine capacity (MaxEngines); the shard count is capacity x ring size")
	clusterRequests := fs.Int("cluster-requests", 240, "cluster: requests per phase")

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

	if *router && *loadgen {
		return fatalf("-router and -loadgen are mutually exclusive")
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
	if *loadgen && *cluster {
		return runClusterBench(clusterBenchConfig{
			backends: *clusterBackends,
			engines:  *clusterEngines,
			requests: *clusterRequests,
			clients:  *clients,
			hedge:    *hedge,
			out:      *out,
		}, stdout, stderr)
	}
	if *loadgen {
		return runLoadgen(loadgenConfig{
			addr:       *addr,
			self:       *self,
			serverCfg:  cfg,
			program:    *program,
			fn:         *fn,
			queries:    *queriesFile,
			clients:    *clients,
			requests:   *requests,
			timeoutMS:  *timeoutMS,
			deadlineMS: *deadlineMS,
			out:        *out,
		}, stdout, stderr)
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

type loadgenConfig struct {
	addr       string
	self       bool
	serverCfg  serve.Config
	program    string
	fn         string
	queries    string
	clients    int
	requests   int
	timeoutMS  int64
	deadlineMS int64
	out        string
}

// BenchReport is the BENCH_served.json schema the loadgen writes.
type BenchReport struct {
	Clients  int `json:"clients"`
	Requests int `json:"requests"`
	// Outcomes.
	OK     int `json:"ok"`
	Shed   int `json:"shed"`
	Errors int `json:"errors"`
	// Request latency over the OK responses (nearest-rank quantiles of the
	// per-request samples).
	P50US  int64 `json:"p50_us"`
	P95US  int64 `json:"p95_us"`
	P99US  int64 `json:"p99_us"`
	MeanUS int64 `json:"mean_us"`
	MaxUS  int64 `json:"max_us"`
	// Warm-up: ColdRequests is how many responses built their engine; the
	// cold/warm latency split is the paper's amortization argument in two
	// numbers.  The split uses server-side service time (BatchStats.ServiceUS:
	// parse + analysis + engine acquisition + batch, no admission queueing),
	// because the single cold sample is otherwise dominated by whatever queue
	// the startup burst happens to form in front of it.  A -preload server
	// prewarms its engines at boot from the artifact's persisted axiom sets
	// and replays the artifact's recorded workload through itself, so no
	// response may be engine-cold at all; ColdRequests is then 0 and the
	// split compares like with like instead: ColdP50US is the p50 of lone
	// probe requests sent one at a time right after boot — the requests a
	// cold boot would have penalized — and WarmP50US the p50 of identical
	// lone probes sent after the burst, when nothing can still be cold.
	// Probes rather than burst samples on both sides, because lone and
	// pipelined requests have different service-time profiles on a small
	// host, and that difference is not about cache warmth.
	ColdRequests int   `json:"cold_requests"`
	ColdP50US    int64 `json:"cold_p50_us"`
	WarmP50US    int64 `json:"warm_p50_us"`
	// Final server-side cache state (from /statz).
	QueriesPerRequest int     `json:"queries_per_request"`
	MemoHitRate       float64 `json:"memo_hit_rate"`
	DFAHitRate        float64 `json:"dfa_hit_rate"`
	DFALen            int     `json:"dfa_len"`
	OpsLen            int     `json:"ops_len"`
	Timeouts          int64   `json:"timeouts"`
}

func runLoadgen(cfg loadgenConfig, stdout, stderr io.Writer) int {
	fatalf := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "aptserved: "+format+"\n", fargs...)
		return 2
	}
	if cfg.program == "" || cfg.queries == "" {
		return fatalf("-loadgen needs -program and -queries-file")
	}
	src, err := os.ReadFile(cfg.program)
	if err != nil {
		return fatalf("%v", err)
	}
	qdata, err := os.ReadFile(cfg.queries)
	if err != nil {
		return fatalf("%v", err)
	}
	var lines []string
	for _, l := range strings.Split(string(qdata), "\n") {
		if s := strings.TrimSpace(l); s != "" && !strings.HasPrefix(s, "#") {
			lines = append(lines, l)
		}
	}
	if len(lines) == 0 {
		return fatalf("%s holds no query lines", cfg.queries)
	}
	body, err := json.Marshal(wire.BatchRequest{
		Program:    string(src),
		Fn:         cfg.fn,
		Queries:    lines,
		TimeoutMS:  cfg.timeoutMS,
		DeadlineMS: cfg.deadlineMS,
	})
	if err != nil {
		return fatalf("%v", err)
	}

	base := cfg.addr
	if cfg.self {
		srv := serve.New(cfg.serverCfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fatalf("listen: %v", err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln) //nolint:errcheck // closed on return
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(stdout, "aptserved: loadgen driving in-process server at %s\n", base)
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}

	type sample struct {
		dur  time.Duration // client-observed wall time
		svc  time.Duration // server-reported service time (BatchStats.ServiceUS)
		cold bool
	}
	var (
		mu      sync.Mutex
		oks     []sample
		shed    int
		errors  int
		perReq  int
		wg      sync.WaitGroup
		next    = make(chan int)
		httpCli = &http.Client{Timeout: 2 * cfg.serverCfg.MaxDeadline}
	)
	fire := func() {
		t0 := time.Now()
		resp, err := httpCli.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
		dur := time.Since(t0)
		if err != nil {
			mu.Lock()
			errors++
			mu.Unlock()
			return
		}
		var br wire.BatchResponse
		decErr := json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		mu.Lock()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			shed++
		case resp.StatusCode != http.StatusOK || decErr != nil:
			errors++
		default:
			oks = append(oks, sample{
				dur:  dur,
				svc:  time.Duration(br.Stats.ServiceUS) * time.Microsecond,
				cold: br.Stats.ColdEngine,
			})
			perReq = br.Stats.Queries
		}
		mu.Unlock()
	}
	// Cold probe: the first request is sent alone, before the client burst
	// opens, so the cold sample measures the booted server's temperature.
	// Inside the burst, every client is connecting and writing at once, and
	// on a small host that contention inflates even the server-side service
	// time of whichever request happens to run first — which is noise about
	// the burst, not about cold start.
	// Cold/warm probe sets: `probes` lone requests right after boot and the
	// same number after the burst, fired one at a time from this goroutine.
	// Lone and burst-pipelined requests have different service-time profiles
	// on a small host (an idle server pays scheduler wakeups a saturated one
	// does not), so the cold/warm comparison must measure both sides under
	// the same conditions — lone requests — and leave the burst to the
	// throughput numbers.
	probes := cfg.requests / 3
	if probes > 9 {
		probes = 9
	}
	// Same connection warmup the burst clients get: the probes should
	// measure the server's boot temperature, not TCP/HTTP setup.
	if resp, err := httpCli.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
	}
	for i := 0; i < probes; i++ {
		fire()
	}
	prologueEnd := len(oks) // lone-probe samples so far; no other writers yet
	go func() {
		for i := 2 * probes; i < cfg.requests; i++ {
			next <- i
		}
		close(next)
	}()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Warm this client's TCP connection and the HTTP stack with a
			// query-free ping, so the cold/warm split below measures engine
			// temperature rather than connection setup (which would otherwise
			// dominate the one cold sample).  /healthz builds no engine.
			if resp, err := httpCli.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
			}
			for range next {
				fire()
			}
		}()
	}
	wg.Wait()
	epilogueStart := len(oks)
	for i := 0; i < probes; i++ {
		fire()
	}

	if len(oks) == 0 {
		return fatalf("no successful responses (%d shed, %d errors)", shed, errors)
	}
	rep := BenchReport{
		Clients:           cfg.clients,
		Requests:          cfg.requests,
		OK:                len(oks),
		Shed:              shed,
		Errors:            errors,
		QueriesPerRequest: perReq,
	}
	var all, cold, warm []time.Duration
	var sum time.Duration
	for _, s := range oks {
		all = append(all, s.dur)
		sum += s.dur
		if s.cold {
			rep.ColdRequests++
		}
	}
	if rep.ColdRequests > 0 {
		for _, s := range oks {
			if s.cold {
				cold = append(cold, s.svc)
			} else {
				warm = append(warm, s.svc)
			}
		}
	} else {
		// Boot prewarm can make every response engine-warm; the split is
		// then boot-adjacent probes vs post-burst probes (see BenchReport).
		for _, s := range oks[:prologueEnd] {
			cold = append(cold, s.svc)
		}
		for _, s := range oks[epilogueStart:] {
			warm = append(warm, s.svc)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.P50US = quantileUS(all, 0.50)
	rep.P95US = quantileUS(all, 0.95)
	rep.P99US = quantileUS(all, 0.99)
	rep.MeanUS = (sum / time.Duration(len(all))).Microseconds()
	rep.MaxUS = all[len(all)-1].Microseconds()
	sort.Slice(cold, func(i, j int) bool { return cold[i] < cold[j] })
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
	rep.ColdP50US = quantileUS(cold, 0.50)
	rep.WarmP50US = quantileUS(warm, 0.50)

	// Final server-side cache state: the statz entry with the most queries
	// is the engine this loadgen exercised.
	var statz serve.Statz
	if resp, err := httpCli.Get(base + "/statz"); err == nil {
		json.NewDecoder(resp.Body).Decode(&statz) //nolint:errcheck // best effort
		resp.Body.Close()
	}
	var busiest *serve.EngineStatz
	for i := range statz.Engines {
		if busiest == nil || statz.Engines[i].Queries > busiest.Queries {
			busiest = &statz.Engines[i]
		}
	}
	if busiest != nil {
		rep.MemoHitRate = busiest.MemoHitRate
		rep.DFAHitRate = busiest.DFAHitRate
		rep.DFALen = busiest.DFALen
		rep.OpsLen = busiest.OpsLen
		rep.Timeouts = busiest.Timeouts
	}

	enc, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Fprintf(stdout, "%s\n", enc)
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, append(enc, '\n'), 0o644); err != nil {
			return fatalf("%v", err)
		}
		fmt.Fprintf(stdout, "aptserved: wrote %s\n", cfg.out)
	}
	if errors > 0 {
		return 1
	}
	return 0
}

// quantileUS returns the nearest-rank q-quantile of sorted durations in
// microseconds (0 for an empty slice): the smallest sample at or above rank
// ceil(q*n), matching telemetry's window-quantile convention — so p99 of
// 100 samples is the 99th value, not an interpolated 98th.
func quantileUS(sorted []time.Duration, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1].Microseconds()
}
