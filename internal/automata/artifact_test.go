package automata

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/pathexpr"
)

// artifactCache compiles the shared test expressions and all their pairwise
// decisions into a fresh cache, returning the cache and the decision answers
// for later comparison.
func artifactCache(t *testing.T) (*SharedCache, map[string]bool) {
	t.Helper()
	alpha := NewAlphabet("L", "R", "N")
	c := NewSharedCache(0, 0, 0)
	exprs := sharedTestExprs()
	answers := map[string]bool{}
	for _, e := range exprs {
		if _, err := c.DFA(e, alpha); err != nil {
			t.Fatalf("DFA(%v): %v", e, err)
		}
	}
	for _, x := range exprs {
		for _, y := range exprs {
			for op, f := range map[string]func() (bool, error){
				"i": func() (bool, error) { return c.Includes(x, y, alpha) },
				"d": func() (bool, error) { return c.Disjoint(x, y, alpha) },
				"e": func() (bool, error) { return c.Equivalent(x, y, alpha) },
			} {
				v, err := f()
				if err != nil {
					t.Fatalf("%s(%v, %v): %v", op, x, y, err)
				}
				answers[op+"|"+x.String()+"|"+y.String()] = v
			}
		}
	}
	return c, answers
}

func artifactEqual(a, b *Artifact) bool {
	return reflect.DeepEqual(a.Alphabets, b.Alphabets) &&
		reflect.DeepEqual(a.Exprs, b.Exprs) &&
		reflect.DeepEqual(a.DFAs, b.DFAs) &&
		reflect.DeepEqual(a.Ops, b.Ops) &&
		reflect.DeepEqual(a.Sigs, b.Sigs) &&
		reflect.DeepEqual(a.Goals, b.Goals) &&
		reflect.DeepEqual(a.AxiomSets, b.AxiomSets) &&
		reflect.DeepEqual(a.Replays, b.Replays)
}

// TestArtifactRoundTrip: Snapshot → serialize → decode must be structurally
// identical, through both the in-memory decoder and the mmap loader, and a
// cache preseeded from the loaded artifact must answer every decision
// identically with zero compilations.
func TestArtifactRoundTrip(t *testing.T) {
	c, answers := artifactCache(t)
	art := c.Snapshot()
	if len(art.DFAs) == 0 || len(art.Ops) == 0 {
		t.Fatalf("empty snapshot: %d DFAs, %d ops", len(art.DFAs), len(art.Ops))
	}
	// The engine- and compiler-populated sections ride the same payload;
	// synthetic entries give them round-trip coverage at this layer too.
	art.AxiomSets = append(art.AxiomSets, ArtifactAxiomSet{
		Name:   "Synthetic",
		Axioms: []ArtifactAxiom{{Name: "A1", Form: 1, RE1: 0, RE2: 1}},
	})
	art.Replays = append(art.Replays, ArtifactReplay{
		Program: "struct S { struct S *n; };",
		Fn:      "f",
		Queries: []string{"between S T", "loop U"},
	})

	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	dec, err := DecodeArtifact(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeArtifact: %v", err)
	}
	if !artifactEqual(art, dec) {
		t.Fatal("DecodeArtifact(WriteTo(art)) differs from art")
	}

	path := filepath.Join(t.TempDir(), "roundtrip.aptc")
	if err := art.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatalf("LoadArtifact: %v", err)
	}
	defer loaded.Close()
	if !artifactEqual(art, loaded) {
		t.Fatal("LoadArtifact(Save(art)) differs from art")
	}
	if hostLittleEndian() && !loaded.Mapped() {
		t.Error("LoadArtifact did not mmap on a little-endian host")
	}

	warm := NewSharedCache(0, 0, 0)
	dfas, ops := warm.Preseed(loaded)
	if dfas != len(art.DFAs) || ops != len(art.Ops) {
		t.Fatalf("Preseed inserted %d/%d DFAs, %d/%d ops", dfas, len(art.DFAs), ops, len(art.Ops))
	}
	alpha := NewAlphabet("L", "R", "N")
	for _, x := range sharedTestExprs() {
		for _, y := range sharedTestExprs() {
			for op, f := range map[string]func() (bool, error){
				"i": func() (bool, error) { return warm.Includes(x, y, alpha) },
				"d": func() (bool, error) { return warm.Disjoint(x, y, alpha) },
				"e": func() (bool, error) { return warm.Equivalent(x, y, alpha) },
			} {
				v, err := f()
				if err != nil {
					t.Fatalf("warm %s(%v, %v): %v", op, x, y, err)
				}
				if want := answers[op+"|"+x.String()+"|"+y.String()]; v != want {
					t.Errorf("warm %s(%v, %v) = %v, cold cache said %v", op, x, y, v, want)
				}
			}
		}
	}
	if st := warm.Stats(); st.Compiles != 0 {
		t.Errorf("preseeded cache compiled %d DFAs; the artifact should cover the whole working set", st.Compiles)
	}

	// Snapshot of the preseeded cache reproduces the artifact exactly — the
	// round trip is a fixed point.  (The cache only carries DFAs and
	// decisions; the synthetic engine-level sections are grafted back before
	// comparing.)
	again := warm.Snapshot()
	again.AxiomSets, again.Replays = art.AxiomSets, art.Replays
	if !artifactEqual(art, again) {
		t.Error("snapshot of the preseeded cache differs from the original artifact")
	}
}

// TestArtifactRejectsCorruption: every damaged image must fail cleanly —
// truncation, bit flips, version skew, bad magic, trailing garbage — and
// never decode into a different artifact (which could carry wrong verdicts).
func TestArtifactRejectsCorruption(t *testing.T) {
	c, _ := artifactCache(t)
	art := c.Snapshot()
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	img := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 23, 24, len(img) / 2, len(img) - 1} {
			if _, err := DecodeArtifact(img[:n]); err == nil {
				t.Errorf("decoding a %d-byte prefix of a %d-byte artifact succeeded", n, len(img))
			}
		}
	})
	t.Run("bit-flipped", func(t *testing.T) {
		// Flip one bit in every region of the image: header fields and a
		// spread of payload offsets.  The checksum (or a field check) must
		// catch each one.
		offsets := []int{0, 5, 9, 17, 24, 30, len(img) / 2, len(img) - 1}
		for _, off := range offsets {
			bad := append([]byte(nil), img...)
			bad[off] ^= 0x10
			if _, err := DecodeArtifact(bad); err == nil {
				t.Errorf("decoding with byte %d bit-flipped succeeded", off)
			}
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(bad[4:8], ArtifactVersion+1)
		_, err := DecodeArtifact(bad)
		if err == nil {
			t.Fatal("decoding a future-version artifact succeeded")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		copy(bad, "NOPE")
		if _, err := DecodeArtifact(bad); err == nil {
			t.Fatal("decoding with a bad magic succeeded")
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), img...), 0xFF, 0xFF)
		if _, err := DecodeArtifact(bad); err == nil {
			t.Fatal("decoding with trailing bytes succeeded")
		}
	})
	t.Run("load-corrupt-file", func(t *testing.T) {
		// The mmap loader must reject and unmap, returning a nil artifact
		// the CLIs turn into a cold-compile fallback.
		bad := append([]byte(nil), img...)
		bad[len(bad)-1] ^= 0x01
		path := filepath.Join(t.TempDir(), "corrupt.aptc")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		art, err := LoadArtifact(path)
		if err == nil {
			t.Fatal("LoadArtifact on a corrupt file succeeded")
		}
		if art != nil {
			t.Fatal("LoadArtifact returned a non-nil artifact alongside an error")
		}
	})
}

// TestArtifactCountBomb: one flipped byte in a table count must fail the
// decode before the count sizes an allocation.  Raising the first
// alphabet's symbol count from 3 by 1<<20 (byte 6 of the payload) once made
// decodeArtifact reserve a million-entry string slice for a few KiB of
// payload; now the count is refused for exceeding the bytes left.
func TestArtifactCountBomb(t *testing.T) {
	c, _ := artifactCache(t)
	payload, err := c.Snapshot().payload()
	if err != nil {
		t.Fatal(err)
	}
	if n := binary.LittleEndian.Uint32(payload[4:8]); n == 0 || n >= 1<<16 {
		t.Fatalf("first alphabet declares %d symbols; the flip below assumes a small count", n)
	}
	bad := append([]byte(nil), payload...)
	bad[6] ^= 0x10

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	art, err := decodeArtifact(bad, false)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decoding a corrupt symbol count succeeded: %d alphabets", len(art.Alphabets))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("decoding a %d-byte payload allocated %d bytes before failing; want < 1 MiB", len(bad), grew)
	}
}

// TestArtifactRejectsStatelessDFA: a DFA table with no states has no start
// state, and preseeding one made the first decision over its expression
// index out of range.  The decoder refuses it.
func TestArtifactRejectsStatelessDFA(t *testing.T) {
	art := &Artifact{
		Alphabets: [][]string{{"a"}},
		Exprs:     []string{"a"},
		DFAs:      []ArtifactDFA{{Alpha: 0, Expr: 0, Accept: []bool{}}},
	}
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeArtifact(buf.Bytes()); err == nil {
		t.Fatal("decoding a zero-state DFA succeeded")
	}
}

// TestPreseedSkipsUnknownExprs: an artifact entry whose expression does not
// re-parse in this process must be skipped — the dependent DFA and decisions
// silently fall back to cold compilation, never to a misattributed verdict.
func TestPreseedSkipsUnknownExprs(t *testing.T) {
	art := &Artifact{
		Alphabets: [][]string{{"a"}},
		Exprs:     []string{"@@not-an-expression@@", "a"},
		DFAs: []ArtifactDFA{
			{Alpha: 0, Expr: 0, Accept: []bool{false, true}, Trans: []int32{1, 1}},
			{Alpha: 0, Expr: 1, Accept: []bool{false, true}, Trans: []int32{1, 1}},
		},
		Ops: []ArtifactOp{
			{Op: 'd', Value: true, Alpha: 0, X: 0, Y: 1},
			{Op: 'e', Value: true, Alpha: 0, X: 1, Y: 1},
		},
	}
	c := NewSharedCache(0, 0, 0)
	dfas, ops := c.Preseed(art)
	if dfas != 1 || ops != 1 {
		t.Fatalf("Preseed inserted %d DFAs, %d ops; want 1 and 1 (unparseable entries skipped)", dfas, ops)
	}
	// The surviving entries answer; the skipped expression just compiles cold.
	alpha := NewAlphabet("a")
	if ok, err := c.Equivalent(pathexpr.MustParse("a"), pathexpr.MustParse("a"), alpha); err != nil || !ok {
		t.Errorf("Equivalent(a, a) = %v, %v after preseed", ok, err)
	}
}

// TestPreseedEmptyLanguage: ∅ has no Parse syntax; Preseed must special-case
// its canonical rendering so artifacts built from axiom sets that decide
// against the empty language survive the round trip.
func TestPreseedEmptyLanguage(t *testing.T) {
	alpha := NewAlphabet("a")
	c := NewSharedCache(0, 0, 0)
	if _, err := c.DFA(pathexpr.Empty{}, alpha); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Disjoint(pathexpr.Empty{}, pathexpr.MustParse("a"), alpha); err != nil {
		t.Fatal(err)
	}
	art := c.Snapshot()
	warm := NewSharedCache(0, 0, 0)
	dfas, ops := warm.Preseed(art)
	if dfas != len(art.DFAs) || ops != len(art.Ops) {
		t.Fatalf("Preseed inserted %d/%d DFAs, %d/%d ops; ∅ entries were dropped",
			dfas, len(art.DFAs), ops, len(art.Ops))
	}
	if ok, err := warm.Disjoint(pathexpr.Empty{}, pathexpr.MustParse("a"), alpha); err != nil || !ok {
		t.Errorf("Disjoint(∅, a) = %v, %v after preseed", ok, err)
	}
	if st := warm.Stats(); st.Compiles != 0 {
		t.Errorf("preseeded cache compiled %d DFAs", st.Compiles)
	}
}
