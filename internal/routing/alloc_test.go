package routing

import (
	"math/rand"
	"testing"

	"spanner/internal/graph"
)

// TestNextHopZeroAlloc gates the forwarding path: a next-hop decision over
// the CSR ball table and the per-tree child runs allocates nothing.
func TestNextHopZeroAlloc(t *testing.T) {
	g := graph.ConnectedGnp(400, 0.02, rand.New(rand.NewSource(8)))
	s, err := New(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, w := int32(0), int32(1)
	allocs := testing.AllocsPerRun(1000, func() {
		s.NextHop(x, s.AddressOf(w))
		x, w = (x+7)%400, (w+13)%400
	})
	if allocs != 0 {
		t.Fatalf("Scheme.NextHop allocates %.1f times per call, want 0", allocs)
	}
}

// TestFromWordsAllocsFlat gates the decoder's layout: the number of
// allocations FromWords makes does not grow with n (or with the number of
// landmark trees), because every per-tree table is a row of one flat array.
func TestFromWordsAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		g := graph.ConnectedGnp(n, 8/float64(n), rand.New(rand.NewSource(9)))
		s, err := New(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		words := s.Words()
		return testing.AllocsPerRun(3, func() {
			if _, err := FromWords(g, words); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(4000)
	if large > small+2 {
		t.Fatalf("FromWords allocations grow with n: %.0f at n=500, %.0f at n=4000", small, large)
	}
}
