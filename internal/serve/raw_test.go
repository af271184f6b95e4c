package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/wire"
)

// rawTreeRequest builds a raw-mode request over the paper's leaf-linked
// binary tree: left and right subtrees of one vertex are provably disjoint.
func rawTreeRequest() wire.BatchRequest {
	tree := axiom.LeafLinkedBinaryTree()
	return wire.BatchRequest{
		AxiomSet:     tree.Source(),
		AxiomSetName: tree.StructName,
		Raw: []wire.RawQuery{
			{SHandle: "h", SPath: "L", SField: "val", SWrite: true,
				THandle: "h", TPath: "R", TField: "val"},
			{SHandle: "h", SPath: "", SField: "val", SWrite: true,
				THandle: "k", TPath: "", TField: "val", Relation: "distinct"},
		},
	}
}

// TestRawBatchMode: raw-mode requests skip program analysis entirely — the
// axiom set travels as text, the queries fully specified — and answer with
// the same response shape program mode uses.  This is the wire mode routed
// cluster traffic rides.
func TestRawBatchMode(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, br := postBatch(t, ts.URL, rawTreeRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, br.Stats.AxiomSet)
	}
	if len(br.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(br.Results))
	}
	for i, r := range br.Results {
		if r.Result != "No" {
			t.Errorf("results[%d] = %q (%s), want No", i, r.Result, r.Reason)
		}
		if r.Line != i {
			t.Errorf("results[%d].Line = %d, want %d", i, r.Line, i)
		}
	}
	if br.Dependent {
		t.Error("Dependent = true for provably independent pairs")
	}
	if !br.Stats.ColdEngine {
		t.Error("first raw request should report a cold engine")
	}

	// Same set again: the engine (keyed by the set's content, not by how
	// the request spelled it) must be warm.
	_, br2 := postBatch(t, ts.URL, rawTreeRequest())
	if br2.Stats.ColdEngine {
		t.Error("second raw request rebuilt the engine")
	}
	if br2.Stats.MemoHits == 0 {
		t.Error("second raw request hit the proof memo 0 times")
	}
}

// TestRawBatchRejectsBadRequests: malformed raw requests answer 400 with a
// JSON error, and mixing modes is refused.
func TestRawBatchRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	tree := axiom.LeafLinkedBinaryTree()
	for name, req := range map[string]wire.BatchRequest{
		"mixed modes": {Program: "void f() { int x; x = 1; }", AxiomSet: tree.Source(),
			Raw: []wire.RawQuery{{SHandle: "h", SField: "val", THandle: "h", TField: "val"}}},
		"bad axiom set": {AxiomSet: "forall nonsense",
			Raw: []wire.RawQuery{{SHandle: "h", SField: "val", THandle: "h", TField: "val"}}},
		"bad path": {AxiomSet: tree.Source(),
			Raw: []wire.RawQuery{{SHandle: "h", SPath: "((", SField: "val", THandle: "h", TField: "val"}}},
		"bad relation": {AxiomSet: tree.Source(),
			Raw: []wire.RawQuery{{SHandle: "h", SField: "val", THandle: "h", TField: "val", Relation: "sideways"}}},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", name, resp.StatusCode, e.Error)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error body", name)
		}
	}
}

// TestNoNetworkArtifactIngress: a local -preload file is the only way an
// artifact enters a server.  Neither the old snapshot nor the old preload
// endpoint exists: shipping a valid artifact over HTTP answers 404 and
// builds no engine, and a warm engine cannot be read back out.
func TestNoNetworkArtifactIngress(t *testing.T) {
	tree := axiom.LeafLinkedBinaryTree()
	queries, err := exec.BuildRawQueries(tree, rawTreeRequest().Raw)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(tree, engine.Options{Workers: 1})
	eng.Batch(context.Background(), queries)
	var art bytes.Buffer
	if _, err := eng.SnapshotArtifact().WriteTo(&art); err != nil {
		t.Fatal(err)
	}
	if _, err := automata.DecodeArtifact(art.Bytes()); err != nil {
		t.Fatalf("test artifact does not decode: %v", err)
	}

	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	pre, err := http.Post(ts.URL+"/v1/preload", "application/octet-stream", bytes.NewReader(art.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	pre.Body.Close()
	if pre.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/preload: status = %d, want 404", pre.StatusCode)
	}
	if n := srv.pool.Len(); n != 0 {
		t.Errorf("POST /v1/preload left %d resident engines, want 0", n)
	}

	// Warm the set through the one real entry point, then ask for it back.
	if resp, br := postBatch(t, ts.URL, rawTreeRequest()); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status = %d (%s)", resp.StatusCode, br.Stats.AxiomSet)
	}
	snap, err := http.Get(fmt.Sprintf("%s/v1/snapshot?fp=%016x", ts.URL, tree.Fingerprint64()))
	if err != nil {
		t.Fatal(err)
	}
	snap.Body.Close()
	if snap.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/snapshot: status = %d, want 404", snap.StatusCode)
	}
}
