package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/axiom"
	"repro/internal/lang"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// serveBody posts body to h's /v1/batch in process and returns the status
// and the raw response body.
func serveBody(t testing.TB, h http.Handler, body []byte) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// answerOf serves body on h and decodes a 200 answer.
func answerOf(t *testing.T, h http.Handler, body []byte) wire.BatchResponse {
	t.Helper()
	code, data := serveBody(t, h, body)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, data)
	}
	var br wire.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return br
}

func mustBody(t testing.TB, req wire.BatchRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

var specLabelRE = regexp.MustCompile(`\b(S\d+): `)

// scenarioRequest generates one program over fam and asks every labelled
// pair its analysis anchors.
func scenarioRequest(t *testing.T, fam *scenario.Family, rng *rand.Rand) wire.BatchRequest {
	t.Helper()
	for tries := 0; tries < 50; tries++ {
		src := scenario.GenerateSpec(fam, rng).Render()
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: generated program does not parse: %v", fam.Name, err)
		}
		res, err := analysis.Analyze(prog, "scenario", analysis.Options{InferTypeAxioms: true})
		if err != nil {
			t.Fatalf("%s: generated program does not analyze: %v", fam.Name, err)
		}
		var lines []string
		labels := specLabelRE.FindAllStringSubmatch(src, -1)
		for i := range labels {
			for j := i + 1; j < len(labels); j++ {
				a, b := labels[i][1], labels[j][1]
				if qs, err := res.QueriesBetween(a, b); err == nil && len(qs) > 0 {
					lines = append(lines, "between "+a+" "+b)
				}
			}
		}
		if len(lines) > 0 {
			return wire.BatchRequest{Program: src, Fn: "scenario", Queries: lines}
		}
	}
	t.Fatalf("%s: no generated program anchored a query", fam.Name)
	return wire.BatchRequest{}
}

// libraryRawRequests is one raw request per axiom library constructor, each
// asking about its structure's first two fields.
func libraryRawRequests() map[string]wire.BatchRequest {
	sets := []*axiom.Set{
		axiom.SinglyLinkedList("next"),
		axiom.CircularList("next"),
		axiom.RingOf("next", 3),
		axiom.DoublyLinkedList("next", "prev"),
		axiom.CyclicDoublyLinkedRing("next", "prev"),
		axiom.BinaryTree("L", "R"),
		axiom.NaryTree("c0", "c1", "c2"),
		axiom.LeafLinkedBinaryTree(),
		axiom.SparseMatrixCore(),
		axiom.SparseMatrix(),
		axiom.SkipList("l0", "l1"),
		axiom.BPlusTree("next", "c0", "c1"),
		axiom.ChainedHashTable("next", "b0", "b1"),
		axiom.UnionFindForest("parent"),
		axiom.Deque("next", "prev"),
		axiom.TwoDRangeTree(),
	}
	out := map[string]wire.BatchRequest{}
	for _, set := range sets {
		fields := set.Fields()
		sort.Strings(fields)
		a, b := fields[0], fields[len(fields)-1]
		out["raw/"+set.StructName] = wire.BatchRequest{
			AxiomSet:     set.Source(),
			AxiomSetName: set.StructName,
			Raw: []wire.RawQuery{
				{SHandle: "h", SPath: a, SField: "val", SWrite: true, THandle: "h", TPath: b, TField: "val"},
				{SHandle: "h", SPath: a + "+", SField: "val", SWrite: true, THandle: "h", TPath: b + "+", TField: "val"},
				{SHandle: "h", SPath: "", SField: "val", SWrite: true, THandle: "k", TPath: a, TField: "val", Relation: "distinct"},
			},
		}
	}
	return out
}

// identityBodies is the identity test's corpus: the §3.3 program, one
// generated program per scenario family, and one raw set per axiom library
// constructor.
func identityBodies(t *testing.T) map[string][]byte {
	t.Helper()
	bodies := map[string][]byte{
		"section33": mustBody(t, wire.BatchRequest{Program: treeProgram(t), Fn: "subr",
			Queries: []string{"between S T", "between S I"}}),
	}
	rng := rand.New(rand.NewSource(13))
	for _, fam := range scenario.Families() {
		bodies["farm/"+fam.Name] = mustBody(t, scenarioRequest(t, fam, rng))
	}
	for name, req := range libraryRawRequests() {
		bodies[name] = mustBody(t, req)
	}
	return bodies
}

// TestPreparedCacheIdentity: a body answered from the prepared cache gets
// exactly the verdicts its first (uncached) answer and a fresh server's
// answer got.  Each body goes three times: a miss that records its first
// sighting, a miss that admits it, and a hit.
func TestPreparedCacheIdentity(t *testing.T) {
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	srv := New(Config{Workers: 2, Telemetry: tel})
	hits := tel.Counter("serve.prepared_hits")
	misses := tel.Counter("serve.prepared_misses")

	bodies := identityBodies(t)
	names := make([]string, 0, len(bodies))
	for name := range bodies {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		body := bodies[name]
		first := answerOf(t, srv, body)
		answerOf(t, srv, body)
		if got, want := hits.Value(), int64(i); got != want {
			t.Fatalf("%s: %d prepared hits before the third send, want %d", name, got, want)
		}
		hit := answerOf(t, srv, body)
		if got, want := hits.Value(), int64(i+1); got != want {
			t.Fatalf("%s: third send was not a prepared hit (%d hits, want %d)", name, got, want)
		}
		fresh := answerOf(t, New(Config{Workers: 2}), body)
		for label, other := range map[string]wire.BatchResponse{"first": first, "fresh": fresh} {
			if !reflect.DeepEqual(hit.Results, other.Results) || hit.Dependent != other.Dependent {
				t.Errorf("%s: hit answer differs from the %s answer:\nhit   %+v\n%-5s %+v", name, label, hit.Results, label, other.Results)
			}
		}
	}
	if got, want := misses.Value(), int64(2*len(bodies)); got != want {
		t.Errorf("prepared misses = %d, want %d", got, want)
	}
	if z := srv.StatzSnapshot(); z.PreparedEntries != len(bodies) {
		t.Errorf("/statz prepared_entries = %d, want %d", z.PreparedEntries, len(bodies))
	}
}

// TestPreparedCacheNeverCachesErrors: a request that fails preparation
// answers the same error every time and leaves nothing in the cache.
func TestPreparedCacheNeverCachesErrors(t *testing.T) {
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	srv := New(Config{MaxQueries: 1, Telemetry: tel})
	for name, tc := range map[string]struct {
		req  wire.BatchRequest
		want int
	}{
		"bad program": {wire.BatchRequest{Program: "int main(", Queries: []string{"between S T"}}, http.StatusBadRequest},
		"unknown fn": {wire.BatchRequest{Program: treeProgram(t), Fn: "nosuchfn", Queries: []string{"between S T"}},
			http.StatusBadRequest},
		"over MaxQueries": {wire.BatchRequest{Program: treeProgram(t), Fn: "subr",
			Queries: []string{"between S T", "between S I"}}, http.StatusRequestEntityTooLarge},
	} {
		body := mustBody(t, tc.req)
		for i := 0; i < 3; i++ {
			if code, data := serveBody(t, srv, body); code != tc.want {
				t.Errorf("%s send %d: status = %d, want %d (%s)", name, i, code, tc.want, data)
			}
		}
	}
	if z := srv.StatzSnapshot(); z.PreparedEntries != 0 || z.PreparedBytes != 0 {
		t.Errorf("errors left %d prepared entries (%d bytes), want none", z.PreparedEntries, z.PreparedBytes)
	}
	if n := tel.Counter("serve.prepared_hits").Value(); n != 0 {
		t.Errorf("%d prepared hits on failing requests, want 0", n)
	}
}

// boundsBody is the bounds test's i-th distinct body: a one-query raw
// request over one axiom set (so every request rides the same warm engine),
// padded with pad bytes of JSON whitespace.
func boundsBody(t testing.TB, i, pad int) []byte {
	t.Helper()
	body := mustBody(t, wire.BatchRequest{
		AxiomSet:     axiom.BinaryTree("L", "R").Source(),
		AxiomSetName: "tree",
		Raw: []wire.RawQuery{{SHandle: fmt.Sprintf("h%d", i), SPath: "L", SField: "val", SWrite: true,
			THandle: fmt.Sprintf("h%d", i), TPath: "R", TField: "val"}},
	})
	return append(body, strings.Repeat(" ", pad)...)
}

// TestPreparedCacheBounds: distinct bodies seen once are never admitted,
// and bodies seen twice never push the cache past its entry or byte bound.
func TestPreparedCacheBounds(t *testing.T) {
	const distinct = 10000
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	srv := New(Config{Telemetry: tel})
	send := func(body []byte) {
		t.Helper()
		if code, data := serveBody(t, srv, body); code != http.StatusOK {
			t.Fatalf("status = %d: %s", code, data)
		}
		if n, b := srv.prepared.size(); n > preparedMaxEntries || b > preparedMaxBytes {
			t.Fatalf("prepared cache holds %d entries / %d bytes, bounds %d / %d",
				n, b, preparedMaxEntries, preparedMaxBytes)
		}
	}

	for i := 0; i < distinct; i++ {
		send(boundsBody(t, i, 0))
	}
	if n, _ := srv.prepared.size(); n != 0 {
		t.Fatalf("%d distinct bodies sent once left %d entries, want 0", distinct, n)
	}

	for i := 0; i < distinct; i++ {
		body := boundsBody(t, distinct+i, 0)
		send(body)
		send(body)
	}
	if n, _ := srv.prepared.size(); n == 0 {
		t.Error("bodies sent twice were never admitted")
	}
	if tel.Counter("serve.prepared_resets").Value() == 0 {
		t.Error("the entry bound never reset the cache")
	}

	// Bodies of 40 KiB pass the byte bound long before the entry bound.
	resets := tel.Counter("serve.prepared_resets").Value()
	for i := 0; i < 3*preparedMaxBytes/(40<<10); i++ {
		body := boundsBody(t, i, 40<<10)
		send(body)
		send(body)
	}
	if n, b := srv.prepared.size(); n == 0 || b == 0 {
		t.Errorf("large bodies sent twice left %d entries / %d bytes, want some", n, b)
	}
	if tel.Counter("serve.prepared_resets").Value() == resets {
		t.Error("the byte bound never reset the cache")
	}
}

// TestPreparedCacheConcurrent drives 8 clients that mix bodies every client
// sends (so their prepared form, analysis output included, is shared
// read-only across concurrent requests) with bodies only one client sends.
// `make race-serve` runs it under the race detector.
func TestPreparedCacheConcurrent(t *testing.T) {
	srv := New(Config{Workers: 2})
	shared := [][]byte{
		mustBody(t, wire.BatchRequest{Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T", "between S I"}}),
		mustBody(t, wire.BatchRequest{Program: listProgram(t), Fn: "update", Queries: []string{"loop U"}}),
		mustBody(t, rawTreeRequest()),
	}
	want := make([]wire.BatchResponse, len(shared))
	for i, body := range shared {
		want[i] = answerOf(t, New(Config{}), body)
	}

	const clients, rounds = 8, 30
	var wg sync.WaitGroup
	errs := make(chan string, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (c + r) % len(shared)
				code, data := serveBody(t, srv, shared[k])
				var got wire.BatchResponse
				if code != http.StatusOK || json.Unmarshal(data, &got) != nil {
					errs <- fmt.Sprintf("client %d shared body %d: status %d: %s", c, k, code, data)
					continue
				}
				if !reflect.DeepEqual(got.Results, want[k].Results) || got.Dependent != want[k].Dependent {
					errs <- fmt.Sprintf("client %d shared body %d: results differ from a fresh server's", c, k)
				}
				if code, data := serveBody(t, srv, boundsBody(t, c*rounds+r, c)); code != http.StatusOK {
					errs <- fmt.Sprintf("client %d distinct body %d: status %d: %s", c, r, code, data)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n, _ := srv.prepared.size(); n != len(shared) {
		t.Errorf("prepared cache holds %d entries, want the %d shared bodies", n, len(shared))
	}
}

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// s33HitRequest returns a server whose prepared cache holds the s33-warm
// body (the §3.3 program's two queries) and a function that serves that
// body once more in process, allocating nothing outside the handler.
func s33HitRequest(t testing.TB) func() {
	srv := New(Config{Workers: 1})
	body := mustBody(t, wire.BatchRequest{Program: treeProgram(t), Fn: "subr",
		Queries: []string{"between S T", "between S I"}})
	for i := 0; i < 3; i++ {
		if code, data := serveBody(t, srv, body); code != http.StatusOK {
			t.Fatalf("status = %d: %s", code, data)
		}
	}
	if n, _ := srv.prepared.size(); n != 1 {
		t.Fatalf("prepared cache holds %d entries after three sends, want 1", n)
	}
	rb := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", rb)
	w := &discardResponseWriter{h: make(http.Header)}
	return func() {
		rb.Reset(body)
		srv.ServeHTTP(w, req)
	}
}

// BenchmarkServeS33Hit times one in-process s33-warm request answered from
// the prepared cache and the warm proof memo.
func BenchmarkServeS33Hit(b *testing.B) {
	serve := s33HitRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
