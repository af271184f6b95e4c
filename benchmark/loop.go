package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// connections is the closed loop's width: two callers, each waiting for
// its answer before sending the next request, on a 2-CPU host.
const connections = 2

// batchResponse is the part of the /v1/batch answer the client checks.
type batchResponse struct {
	Results []verdict `json:"results"`
	Stats   struct {
		ServiceUS  int64 `json:"service_us"`
		ColdEngine bool  `json:"cold_engine"`
	} `json:"stats"`
}

// conn is one keep-alive connection to the daemon.
type conn struct {
	base string
	http *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.http.CloseIdleConnections() }

// send posts one request and decodes the answer.  The duration runs from
// send to decoded response.  kind is outcomeOK when the body decoded; the
// verdict check is left to the caller so it stays off the timed path.
func (c *conn) send(req *request) (kind failKind, dur time.Duration, resp *batchResponse) {
	t0 := time.Now()
	hr, err := c.http.Post(c.base+"/v1/batch", "application/json", bytes.NewReader(req.body))
	if err != nil {
		return failTransport, time.Since(t0), nil
	}
	body, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		return failTransport, time.Since(t0), nil
	}
	if hr.StatusCode != http.StatusOK {
		return failStatus, time.Since(t0), nil
	}
	resp = &batchResponse{}
	if err := json.Unmarshal(body, resp); err != nil {
		return failUndecodable, time.Since(t0), nil
	}
	return outcomeOK, time.Since(t0), resp
}

// classify finishes send's outcome with the verdict check.
func classify(kind failKind, resp *batchResponse, want []verdict) failKind {
	if kind != outcomeOK {
		return kind
	}
	return compareVerdicts(resp.Results, want)
}

// loopResult is what one closed-loop window measured.
type loopResult struct {
	tally   tally
	latMS   []float64 // client latency of each OK request
	doneS   []float64 // completion time of each OK request, seconds into the window
	svcUS   []float64 // the daemon's stats.service_us of each OK request
	overUS  []float64 // client latency minus service_us, per OK request
	cold    int       // OK requests that built their engine
	elapsed time.Duration
	next    int // index of the first request not sent
	// first holds the first failure seen, for diagnostics.
	first string
}

func (r *loopResult) ok() int { return r.tally.byKind[outcomeOK] }

// merge appends round o, shifting its completion times by offset seconds.
// Completions at or past span seconds into o (the window's tail) keep
// their tally and latency out of the slices: they get no completion time
// inside the merged window.
func (r *loopResult) merge(o *loopResult, offset, span float64) {
	r.tally.merge(&o.tally)
	for i, d := range o.doneS {
		if d < span {
			r.doneS = append(r.doneS, d+offset)
			r.latMS = append(r.latMS, o.latMS[i])
		}
	}
	r.cold += o.cold
	if r.first == "" {
		r.first = o.first
	}
}

// runLoop drives the workload over `connections` closed-loop connections,
// starting at stream index start.  It stops sending once count requests
// are sent (count > 0) or, with count == 0, once dur has passed and at
// least minOK requests succeeded (bounded by 3×dur).  Every answer is
// checked against the reference.  onOK, when non-nil, is called after each
// OK answer with the window's running OK count, off the timed path.
func runLoop(base string, w *workload, start, count int, dur time.Duration, minOK int, onOK func(ok int64)) *loopResult {
	var (
		next    atomic.Int64
		okCount atomic.Int64
		mu      sync.Mutex
		res     = &loopResult{}
		wg      sync.WaitGroup
	)
	next.Store(int64(start))
	t0 := time.Now()
	soft, hard := t0.Add(dur), t0.Add(3*dur)
	more := func() (int, bool) {
		if count > 0 {
			k := int(next.Add(1) - 1)
			return k, k < start+count
		}
		now := time.Now()
		if now.After(hard) || (now.After(soft) && int(okCount.Load()) >= minOK) {
			return 0, false
		}
		return int(next.Add(1) - 1), true
	}
	for i := 0; i < connections; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(base)
			defer c.close()
			var local loopResult
			for {
				k, ok := more()
				if !ok {
					break
				}
				req := w.next(k)
				kind, d, resp := c.send(req)
				kind = classify(kind, resp, req.want)
				local.tally.add(kind)
				if kind != outcomeOK {
					if local.first == "" {
						local.first = fmt.Sprintf("request %d: %v", k, kind)
					}
					continue
				}
				if n := okCount.Add(1); onOK != nil {
					onOK(n)
				}
				local.doneS = append(local.doneS, time.Since(t0).Seconds())
				local.latMS = append(local.latMS, float64(d.Nanoseconds())/1e6)
				svc := float64(resp.Stats.ServiceUS)
				local.svcUS = append(local.svcUS, svc)
				local.overUS = append(local.overUS, float64(d.Nanoseconds())/1e3-svc)
				if resp.Stats.ColdEngine {
					local.cold++
				}
			}
			mu.Lock()
			res.tally.merge(&local.tally)
			res.latMS = append(res.latMS, local.latMS...)
			res.doneS = append(res.doneS, local.doneS...)
			res.svcUS = append(res.svcUS, local.svcUS...)
			res.overUS = append(res.overUS, local.overUS...)
			res.cold += local.cold
			if res.first == "" {
				res.first = local.first
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	res.next = int(next.Load())
	if count > 0 {
		res.next = start + count
	}
	return res
}
