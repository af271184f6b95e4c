package automata_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/automata"
	"repro/internal/engine"
	"repro/internal/pathexpr"
)

// sealArtifact frames a payload with a valid header and checksum, so fuzzed
// payloads reach the decoder instead of failing the checksum.
func sealArtifact(payload []byte) []byte {
	h := fnv.New64a()
	h.Write(payload)
	img := make([]byte, 24, 24+len(payload))
	copy(img, "APTC")
	binary.LittleEndian.PutUint32(img[4:8], automata.ArtifactVersion)
	binary.LittleEndian.PutUint64(img[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint64(img[16:24], h.Sum64())
	return append(img, payload...)
}

// artifactPayload serializes the artifact and strips its header.
func artifactPayload(f *testing.F, art *automata.Artifact) []byte {
	f.Helper()
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()[24:]
}

// FuzzDecodeArtifact: the artifact decoder must never panic, whatever the
// payload, and anything it accepts must survive a WriteTo round trip
// unchanged and preseed a fresh cache.  Seeds are a DFA-cache snapshot and
// an engine snapshot carrying proof goals, an axiom set and a replay.
func FuzzDecodeArtifact(f *testing.F) {
	alpha := automata.NewAlphabet("L", "R", "N")
	c := automata.NewSharedCache(0, 0, 0)
	x, y := pathexpr.MustParse("L.(L|R)*"), pathexpr.MustParse("R.N*")
	for _, e := range []pathexpr.Expr{x, y, pathexpr.Empty{}} {
		if _, err := c.DFA(e, alpha); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := c.Disjoint(x, y, alpha); err != nil {
		f.Fatal(err)
	}
	f.Add(artifactPayload(f, c.Snapshot()))

	eng := engine.New(engine.WorkloadWindows()[0], engine.Options{Workers: 1})
	eng.Batch(context.Background(), engine.Workload(1, 12))
	art := eng.SnapshotArtifact()
	if len(art.Goals) == 0 || len(art.AxiomSets) == 0 {
		f.Fatalf("engine snapshot has %d goals and %d axiom sets; want both", len(art.Goals), len(art.AxiomSets))
	}
	art.Replays = append(art.Replays, automata.ArtifactReplay{Program: "void f() {}", Fn: "f", Queries: []string{"between S T"}})
	f.Add(artifactPayload(f, art))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		art, err := automata.DecodeArtifact(sealArtifact(payload))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := art.WriteTo(&buf); err != nil {
			t.Fatalf("re-encoding a decoded artifact: %v", err)
		}
		back, err := automata.DecodeArtifact(buf.Bytes())
		if err != nil {
			t.Fatalf("decoding a re-encoded artifact: %v", err)
		}
		for _, p := range []struct {
			name string
			a, b any
		}{
			{"alphabets", art.Alphabets, back.Alphabets},
			{"exprs", art.Exprs, back.Exprs},
			{"DFAs", art.DFAs, back.DFAs},
			{"ops", art.Ops, back.Ops},
			{"sigs", art.Sigs, back.Sigs},
			{"goals", art.Goals, back.Goals},
			{"axiom sets", art.AxiomSets, back.AxiomSets},
			{"replays", art.Replays, back.Replays},
		} {
			if !reflect.DeepEqual(p.a, p.b) {
				t.Fatalf("%s changed across a WriteTo round trip", p.name)
			}
		}
		automata.NewSharedCache(0, 0, 0).Preseed(art)
		engine.ArtifactAxiomSets(art)
	})
}
