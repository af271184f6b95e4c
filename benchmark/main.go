// Command benchmark is the repository's end-to-end benchmark: it boots the
// aptserved binary built from this tree, drives one seeded workload over
// two closed-loop connections, checks every verdict against a sequential
// reference, and prints the metrics BENCHMARK.json names.  With -trace 1 it
// instead reports per-layer metrics from an in-process traced replay of the
// same requests.  See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// setupBoots is how many times a run boots the daemon(s) to time set-up;
// the median is reported.  Each boot's first request is the next one of
// the stream, so the median also evens out how much cold work single
// requests carry.
const setupBoots = 29

// rounds is how many of those boots each serve one equal part of the
// measured window.  Throughput differs between daemon instances more than
// within one (each fresh process set lands differently on the host), so a
// run measures several and reports from the faster half of all their
// one-second slices.
const rounds = 4

// rssMark is the measured request after whose answer the daemons' peak RSS
// is read.  Reading at a fixed request count, not at the window's end,
// keeps a faster daemon from being charged for the extra distinct programs
// it got through (farm-mix's daemon keeps growing with them).  A daemon too
// slow to reach the mark is read at the window's end.
const rssMark = 2000

// minOK is the fewest successful requests a measured window collects over
// all rounds, so that the faster half keeps well over minBeyond samples
// beyond p99.
const minOK = 2400

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	root     string
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: s33-warm, farm-mix, raw-churn or routed-raw")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from the traced replay")
	fs.StringVar(&o.bin, "aptserved", "", "aptserved binary built from the tree under test")
	fs.StringVar(&o.root, "root", ".", "repository root (for the environment record)")
	fs.StringVar(&o.out, "out", "", "directory for the full result and the span file (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.bin == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "benchmark: need -aptserved, -seconds >= 1 and -trace 0|1")
		return 2
	}
	o.trace = trace == 1
	res, env, err := execute(o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 2
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintf(stdout, "%s\n", envLine)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if o.out != "" {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
		full, _ := json.MarshalIndent(map[string]any{"env": env, "result": res}, "", "  ")
		if err := os.WriteFile(filepath.Join(o.out, name), append(full, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// prepare generates the workload and its reference verdicts.  routed-raw's
// pool is its candidate stream until the ring is known (see placed); boot
// answers the placed pool.
func prepare(o options) (*workload, error) {
	w, err := generate(o.workload, o.seed)
	if err != nil || w.name == wlRoutedRaw {
		return w, err
	}
	if err := answerAll(w.pool); err != nil {
		return nil, err
	}
	return w, checkS33(w)
}

func execute(o options) (*result, environment, error) {
	env := newEnvironment(o.root, o.workload, o.seed, o.seconds, o.trace)
	w, err := prepare(o)
	if err != nil {
		return nil, env, err
	}
	env.CalibrationMS = append(env.CalibrationMS, calibrate())
	var res *result
	if o.trace {
		res, err = executeTraced(o, w, &env)
	} else {
		res, err = executeUntraced(o, w, &env)
	}
	env.CalibrationMS = append(env.CalibrationMS, calibrate())
	return res, env, err
}

// boot starts the workload's daemons, picks routed-raw's ring-fitted pool,
// and sends request k of the stream until it is answered 200.  It returns
// the time from exec to that answer.  The ring hashes the backends'
// ephemeral addresses, and some address pairs give one backend too small a
// share to place routed-raw's pool; boot then starts over on fresh ports,
// and the clock restarts with it.
func boot(o options, w *workload, k int) (*cluster, *workload, time.Duration, error) {
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		c, err := bootCluster(o.bin, w.name == wlRoutedRaw)
		if err != nil {
			return nil, nil, 0, err
		}
		pw := w
		if w.name == wlRoutedRaw {
			if pw, err = w.placed(c.backendAddrs()); err != nil {
				if err := c.stop(); err != nil {
					return nil, nil, 0, err
				}
				if attempt < 10 {
					continue
				}
				return nil, nil, 0, err
			}
		}
		d, err := firstAnswer(c, pw, k, t0)
		if err != nil {
			c.stop() //nolint:errcheck // already failing
			return nil, nil, 0, err
		}
		return c, pw, d, nil
	}
}

// firstAnswer sends request k until it is answered 200 and returns the
// time since t0, then checks the answer.
func firstAnswer(c *cluster, w *workload, k int, t0 time.Time) (time.Duration, error) {
	cn := newConn(c.base)
	defer cn.close()
	req := w.next(k)
	for {
		kind, _, resp := cn.send(req)
		if kind == outcomeOK {
			setup := time.Since(t0)
			// routed-raw's references are computed once its pool is placed,
			// after the clock stops.
			if err := answerAll(w.pool); err != nil {
				return 0, err
			}
			if k := classify(kind, resp, req.want); k != outcomeOK {
				return 0, fmt.Errorf("first request: %v", k)
			}
			return setup, nil
		}
		if time.Since(t0) > 30*time.Second {
			return 0, fmt.Errorf("no OK answer within 30s (last: %v)", kind)
		}
		time.Sleep(time.Millisecond)
	}
}

// executeUntraced boots the daemons setupBoots times.  The last `rounds`
// boots each serve one round of the measured window, after the workload's
// warm-up; the others only time set-up.  The stream runs on across boots,
// so no request repeats because a daemon was restarted.
func executeUntraced(o options, w *workload, env *environment) (*result, error) {
	perRound := o.seconds / rounds
	if perRound < 1 {
		perRound = 1
	}
	var (
		setups, rsss []float64
		m            loopResult // merged over rounds; doneS offset per round
		rssAt        []int
		k            int // next stream index
	)
	for i := 0; i < setupBoots; i++ {
		c, pw, d, err := boot(o, w, k)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %v", i, err)
		}
		k++
		setups = append(setups, d.Seconds())
		if i >= setupBoots-rounds {
			r, rss, at, err := measureRound(c, pw, k, perRound)
			if err != nil {
				c.stop() //nolint:errcheck // already failing
				return nil, err
			}
			k = r.next
			rsss, rssAt = append(rsss, rss), append(rssAt, at)
			m.merge(r, float64(len(rsss)-1)*float64(perRound), float64(perRound))
		}
		if err := c.stop(); err != nil {
			return nil, err
		}
	}
	sl := summarizeSlices(m.doneS, m.latMS, rounds*perRound)
	if sl.qps == 0 {
		return nil, fmt.Errorf("no request succeeded (%s)", m.first)
	}
	p99, err := tailQuantile(sl.lat, 0.99)
	if err != nil {
		return nil, fmt.Errorf("p99_ms: %v", err)
	}
	env.Samples["rounds"] = rounds
	env.Samples["latency"] = len(sl.lat)
	env.Samples["ok_in_slices"] = len(m.latMS)
	env.Samples["slices"] = len(sl.rates)
	env.Samples["setup_boots"] = len(setups)
	env.Samples["cold_requests"] = m.cold
	env.RSSAtRequest = rssAt
	env.SliceRates = sl.rates
	env.SetupS = setups
	env.Outcomes = m.tally.counts()
	return &result{
		Correct:   m.tally.correct(),
		Attempted: m.tally.attempted,
		Failed:    m.tally.failed(),
		Metrics: map[string]metric{
			"qps":         {sl.qps, "req/s"},
			"p50_ms":      {nearestRank(sl.lat, 0.5), "ms"},
			"p99_ms":      {p99, "ms"},
			"error_rate":  {failureUpperBound(m.tally.failed(), m.tally.attempted), "ratio"},
			"setup_s":     {median(setups), "s"},
			"rss_peak_mb": {median(rsss), "MB"},
		},
	}, nil
}

// measureRound warms a freshly booted daemon up from stream index k, then
// measures perRound seconds.  It returns the round and the daemons' peak
// RSS, read when the rssMark-th measured request is answered (or at the
// round's end if fewer succeed), with the request count it was read at.
func measureRound(c *cluster, w *workload, k, perRound int) (*loopResult, float64, int, error) {
	warm := runLoop(c.base, w, k, w.warm, 0, 0, nil)
	if warm.tally.failed() > 0 {
		return nil, 0, 0, fmt.Errorf("warm-up: %d of %d requests failed (%s)", warm.tally.failed(), warm.tally.attempted, warm.first)
	}
	var (
		rss    float64
		rssErr error
		rssAt  int64
	)
	readRSS := func(ok int64) {
		rssAt = ok
		rss, rssErr = c.peakRSSMB()
	}
	r := runLoop(c.base, w, warm.next, 0, time.Duration(perRound)*time.Second, minOK/rounds, func(ok int64) {
		if ok == rssMark {
			readRSS(ok)
		}
	})
	if rssAt == 0 {
		readRSS(int64(r.ok()))
	}
	return r, rss, int(rssAt), rssErr
}

// executeTraced measures the per-layer metrics: a short untraced window
// against the daemons for service_us and the client-side overhead, then
// the traced in-process replay, then an in-process ServeHTTP pass.
func executeTraced(o options, w *workload, env *environment) (*result, error) {
	total := time.Duration(o.seconds) * time.Second
	c, pw, _, err := boot(o, w, 0)
	if err != nil {
		return nil, err
	}
	defer c.stop() //nolint:errcheck // the success path stops explicitly
	if warm := runLoop(c.base, pw, 1, pw.warm-1, 0, 0, nil); warm.tally.failed() > 0 {
		return nil, fmt.Errorf("warm-up: %d failed (%s)", warm.tally.failed(), warm.first)
	}
	m := runLoop(c.base, pw, pw.warm, 0, total/2, 0, nil)
	interned, err := internedExprs(c)
	if err != nil {
		return nil, err
	}
	if err := c.stop(); err != nil {
		return nil, err
	}

	rp := newReplayer()
	if err := rp.replayWindow(pw, total/4); err != nil {
		return nil, err
	}
	selfUS, allocs, spanTotal := rp.tr.layerStats(pw.warm)
	hp, err := runHandlerPass(pw, w.name == wlRoutedRaw, total/4)
	if err != nil {
		return nil, err
	}
	if o.out != "" {
		if err := rp.tr.write(filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))); err != nil {
			return nil, err
		}
	}

	var t tally
	t.merge(&m.tally)
	t.merge(&rp.tally)
	t.merge(&hp.tally)
	env.Samples["untraced"] = m.ok()
	env.Samples["traced"] = len(rp.queries)
	env.Samples["spans"] = len(rp.tr.spans)
	env.Samples["handler"] = len(hp.handlerUS)
	env.Outcomes = t.counts()

	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	orZero := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	us := func(name string) metric { return metric{selfUS[name], "us"} }
	al := func(name string) metric { return metric{allocs[name], "count"} }
	return &result{
		Correct:   t.correct(),
		Attempted: t.attempted,
		Failed:    t.failed(),
		Metrics: map[string]metric{
			"wire.decode_us":               us("wire.decode"),
			"wire.decode_allocs":           al("wire.decode"),
			"wire.encode_us":               us("wire.encode"),
			"wire.encode_allocs":           al("wire.encode"),
			"wire.response_bytes":          {median(rp.respBytes), "bytes"},
			"lang.parse_us":                us("lang.parse"),
			"lang.parse_allocs":            al("lang.parse"),
			"analysis.analyze_us":          us("analysis.analyze"),
			"analysis.analyze_allocs":      al("analysis.analyze"),
			"analysis.expand_us":           us("analysis.expand"),
			"analysis.queries_per_request": {median(rp.queries), "count"},
			"axiom.parse_us":               us("axiom.parse"),
			"axiom.parse_allocs":           al("axiom.parse"),
			"exec.build_raw_us":            us("exec.build_raw"),
			"exec.acquire_us":              us("exec.acquire"),
			"exec.cold_ratio":              {ratio(int64(rp.cold), int64(rp.acquires)), "ratio"},
			"exec.evictions":               {float64(rp.evictions), "count"},
			"engine.batch_us":              us("engine.batch"),
			"engine.batch_allocs":          al("engine.batch"),
			"engine.memo_hit_rate":         {ratio(rp.memoHits, rp.memoLookups), "ratio"},
			"engine.degraded":              {float64(rp.degraded), "count"},
			"automata.dfa_hit_rate":        {ratio(rp.dfaHits, rp.dfaLookups), "ratio"},
			"automata.decision_hit_rate":   {ratio(rp.decHits, rp.decLookups), "ratio"},
			"automata.dfa_len":             {float64(rp.dfaLen()), "count"},
			"pathexpr.interned_exprs":      {float64(interned), "count"},
			"serve.handler_us":             {orZero(hp.handlerUS), "us"},
			"serve.service_us":             {median(m.svcUS), "us"},
			"serve.overhead_us":            {median(m.overUS), "us"},
			"trace.span_total_us":          {spanTotal, "us"},
			"route.hop_us":                 {orZero(hp.hopUS), "us"},
			"route.forwarded":              {float64(hp.forwarded), "count"},
		},
	}, nil
}

// internedExprs sums the backends' /statz interned_exprs (the router keeps
// no engines).
func internedExprs(c *cluster) (int, error) {
	ds := c.daemons
	if len(ds) > 1 {
		ds = ds[:len(ds)-1]
	}
	cl := &http.Client{Timeout: 10 * time.Second}
	total := 0
	for _, d := range ds {
		resp, err := cl.Get("http://" + d.addr + "/statz")
		if err != nil {
			return 0, err
		}
		var z struct {
			InternedExprs int `json:"interned_exprs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&z)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("statz: %v", err)
		}
		total += z.InternedExprs
	}
	return total, nil
}
