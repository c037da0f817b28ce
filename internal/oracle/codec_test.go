package oracle

import (
	"errors"
	"math/rand"
	"testing"

	"spanner/internal/graph"
)

func TestCodecRoundTripIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 3} {
		g := graph.ConnectedGnp(120, 0.06, rng)
		o, err := New(g, k, 7)
		if err != nil {
			t.Fatal(err)
		}
		words := o.Words()
		o2, err := FromWords(g, words)
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		if o2.K() != o.K() || o2.Size() != o.Size() {
			t.Fatalf("k=%d: K/Size changed: %d/%d vs %d/%d", k, o2.K(), o2.Size(), o.K(), o.Size())
		}
		for u := int32(0); int(u) < g.N(); u++ {
			for v := int32(0); int(v) < g.N(); v++ {
				if a, b := o.Query(u, v), o2.Query(u, v); a != b {
					t.Fatalf("k=%d: Query(%d,%d) changed: %d vs %d", k, u, v, a, b)
				}
			}
		}
		if o2.Spanner().Len() != o.Spanner().Len() {
			t.Fatalf("k=%d: spanner size changed", k)
		}
		s2 := o2.Spanner()
		o.Spanner().ForEach(func(u, v int32) {
			if !s2.Has(u, v) {
				t.Fatalf("k=%d: spanner lost edge (%d,%d)", k, u, v)
			}
		})
		// Determinism: encoding twice (and encoding the decoded oracle)
		// yields the identical stream.
		again := o.Words()
		reenc := o2.Words()
		if len(again) != len(words) || len(reenc) != len(words) {
			t.Fatalf("k=%d: stream length unstable", k)
		}
		for i := range words {
			if words[i] != again[i] || words[i] != reenc[i] {
				t.Fatalf("k=%d: stream differs at word %d", k, i)
			}
		}
	}
}

func TestCodecRejectsCorruptStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.ConnectedGnp(40, 0.1, rng)
	o, err := New(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	words := o.Words()
	if _, err := FromWords(g, words[:len(words)/2]); err == nil {
		t.Fatal("truncated stream must error")
	}
	if _, err := FromWords(g, nil); err == nil {
		t.Fatal("empty stream must error")
	}
	if _, err := FromWords(graph.Path(3), words); err == nil {
		t.Fatal("wrong graph size must error")
	}
	bad := append([]int64(nil), words...)
	bad[0] = 99 // implausible k
	if _, err := FromWords(g, bad); err == nil {
		t.Fatal("implausible k must error")
	}
	if _, err := FromWords(g, append(append([]int64(nil), words...), 0)); err == nil {
		t.Fatal("trailing words must error")
	}
}

// TestCodecRejectsUnsortedBunch: bunch keys must be strictly ascending; an
// unsorted or duplicate key is refused with graph.ErrUnsortedRow instead of
// being merged.
func TestCodecRejectsUnsortedBunch(t *testing.T) {
	g := graph.ConnectedGnp(80, 0.08, rand.New(rand.NewSource(5)))
	o, err := New(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	words := o.Words()
	row := 2 + g.N() + 2*o.K()*g.N() // vertex 0's bunch
	for words[row] < 2 {
		row += 1 + 2*int(words[row])
	}
	for name, mutate := range map[string]func(w []int64){
		"unsorted":  func(w []int64) { w[row+1], w[row+3] = w[row+3], w[row+1] },
		"duplicate": func(w []int64) { w[row+3] = w[row+1] },
	} {
		bad := append([]int64(nil), words...)
		mutate(bad)
		if _, err := FromWords(g, bad); !errors.Is(err, graph.ErrUnsortedRow) {
			t.Errorf("%s bunch: got %v, want graph.ErrUnsortedRow", name, err)
		}
	}
}
