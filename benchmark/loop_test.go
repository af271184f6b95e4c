package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestErrorAccounting drives the closed loop against a fake daemon that
// answers each request of a fixed stream one way — correct, 429 shed, 500,
// an undecodable 200, a verdict degraded to Maybe, and a wrong verdict —
// and checks each is counted exactly once, as its own kind.
func TestErrorAccounting(t *testing.T) {
	good := []verdict{{"No", "flow", "proved"}, {"Yes", "flow", "same vertex"}}
	degraded := []verdict{{"Maybe", "flow", "timeout"}, good[1]}
	wrong := []verdict{{"Yes", "flow", "proved"}, good[1]}
	type answer struct {
		status int
		body   string
	}
	results := func(vs []verdict) string {
		b, _ := json.Marshal(map[string]any{"results": vs, "stats": map[string]any{"service_us": 5}})
		return string(b)
	}
	answers := []answer{
		{200, results(good)},
		{429, `{"error":"admission queue full; retry"}`},
		{500, `{"error":"internal error"}`},
		{200, `{"results": [`},
		{200, results(degraded)},
		{200, results(wrong)},
	}
	w := &workload{name: "fake"}
	for i := range answers {
		body := fmt.Sprintf(`{"n":%d}`, i)
		w.pool = append(w.pool, &request{body: []byte(body), queries: 2, want: good})
	}
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var req struct{ N int }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("fake daemon: %v", err)
			return
		}
		a := answers[req.N]
		rw.WriteHeader(a.status)
		rw.Write([]byte(a.body)) //nolint:errcheck // test server
	}))
	defer srv.Close()

	res := runLoop(srv.URL, w, 0, len(answers), time.Second, 0, nil)
	want := map[failKind]int{outcomeOK: 1, failStatus: 2, failUndecodable: 1, failDegraded: 1, failMismatch: 1}
	for k := failKind(0); k < numFailKinds; k++ {
		if res.tally.byKind[k] != want[k] {
			t.Errorf("%v: counted %d, want %d", k, res.tally.byKind[k], want[k])
		}
	}
	if res.tally.attempted != len(answers) || res.tally.failed() != len(answers)-1 {
		t.Errorf("attempted %d failed %d, want %d and %d", res.tally.attempted, res.tally.failed(), len(answers), len(answers)-1)
	}
	if res.tally.correct() {
		t.Error("a wrong verdict must make the run incorrect")
	}
	if len(res.latMS) != 1 {
		t.Errorf("%d latency samples, want 1 (OK requests only)", len(res.latMS))
	}

	// A dead daemon is a transport failure.
	srv.Close()
	res = runLoop(srv.URL, w, 0, 1, time.Second, 0, nil)
	if res.tally.byKind[failTransport] != 1 || res.tally.attempted != 1 {
		t.Errorf("closed server: outcomes %v", res.tally.counts())
	}
}
