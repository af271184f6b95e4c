package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestAwaitReadyWaitsForHealthz checks that awaitReady keeps polling
// through refusals until /healthz answers 200, and gives up at its limit.
func TestAwaitReadyWaitsForHealthz(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" || calls.Add(1) < 3 {
			http.Error(w, "not yet", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n")) //nolint:errcheck // test server
	}))
	defer srv.Close()
	d := &daemon{addr: strings.TrimPrefix(srv.URL, "http://")}
	if err := d.awaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("ready after %d polls, want 3", n)
	}

	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	d = &daemon{addr: strings.TrimPrefix(down.URL, "http://")}
	if err := d.awaitReady(50 * time.Millisecond); err == nil {
		t.Fatal("a daemon that never answers 200 reported ready")
	}
}
