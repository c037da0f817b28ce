package oracle

import (
	"math/rand"
	"testing"

	"spanner/internal/graph"
)

// TestQueryZeroAlloc gates the query path: the Thorup–Zwick walk over the
// CSR bunch table allocates nothing.
func TestQueryZeroAlloc(t *testing.T) {
	g := graph.ConnectedGnp(400, 0.02, rand.New(rand.NewSource(8)))
	o, err := New(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	u, v := int32(0), int32(1)
	allocs := testing.AllocsPerRun(1000, func() {
		o.Query(u, v)
		u, v = (u+7)%400, (v+13)%400
	})
	if allocs != 0 {
		t.Fatalf("Oracle.Query allocates %.1f times per call, want 0", allocs)
	}
}

// TestFromWordsAllocsFlat gates the decoder's layout: the number of
// allocations FromWords makes is fixed by k, not by n, because every table
// is a handful of flat arrays sized up front.
func TestFromWordsAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		g := graph.ConnectedGnp(n, 8/float64(n), rand.New(rand.NewSource(9)))
		o, err := New(g, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		words := o.Words()
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
