package main

import (
	"math/rand"
	"testing"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/baseline"
	"spanner/internal/graph"
	"spanner/internal/serve"
)

// engineReply answers q in-process and converts the reply to client form,
// as both transports do.
func engineReply(t *testing.T, eng *serve.Engine, q client.Query) client.Reply {
	t.Helper()
	typ, err := serve.ParseQueryType(q.Type)
	if err != nil {
		t.Fatal(err)
	}
	r := eng.Query(serve.Request{Type: typ, U: q.U, V: q.V})
	out := client.Reply{Type: q.Type, U: r.U, V: r.V, Dist: r.Dist, Path: r.Path, Snapshot: r.SnapshotID}
	if typ == serve.QueryRoute && r.Bound != graph.Unreachable {
		b := r.Bound
		out.Bound = &b
	}
	if r.Err != nil {
		out.Err = r.Err.Error()
	}
	return out
}

func TestCheckerAcceptsEngineAndCatchesTampering(t *testing.T) {
	g := graph.ConnectedGnp(300, 6.0/300, rand.New(rand.NewSource(3)))
	bs, err := baseline.BaswanaSen(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	art, err := artifact.Build(g, bs.Spanner, "baswana-sen", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(art, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c := newChecker()
	c.addGen(1, g, bs.Spanner, 2)

	// Genuine answers pass.
	rng := rand.New(rand.NewSource(9))
	var dist, path, route client.Reply
	var dq, pq, rq client.Query
	for i := 0; i < 300; i++ {
		q := client.Query{Type: mixType(rng), U: int32(rng.Intn(300)), V: int32(rng.Intn(300))}
		r := engineReply(t, eng, q)
		if err := c.check(1, q, r); err != nil {
			t.Fatalf("genuine reply rejected: %v", err)
		}
		// Keep one multi-hop answer of each type to tamper with.
		switch {
		case q.Type == "dist" && r.Dist >= 2:
			dq, dist = q, r
		case q.Type == "path" && len(r.Path) >= 3:
			pq, path = q, r
		case q.Type == "route" && len(r.Path) >= 3:
			rq, route = q, r
		}
	}
	if dist.Type == "" || path.Type == "" || route.Type == "" {
		t.Fatal("sample lacks a multi-hop answer of some type")
	}

	clonePath := func(r client.Reply) client.Reply {
		r.Path = append([]int32(nil), r.Path...)
		return r
	}
	nonEdge := func(a int32, has func(a, b int32) bool) int32 {
		for b := int32(0); b < 300; b++ {
			if b != a && !has(a, b) {
				return b
			}
		}
		t.Fatal("no non-edge")
		return 0
	}
	exact := c.exact(c.gens[1], dq.U, dq.V)
	cases := []struct {
		name string
		gen  int64
		q    client.Query
		r    func() client.Reply
	}{
		{"dist below the true distance", 1, dq, func() client.Reply { r := dist; r.Dist = exact - 1; return r }},
		{"dist beyond stretch 2K-1", 1, dq, func() client.Reply { r := dist; r.Dist = 3*exact + 1; return r }},
		{"dist answered as unreachable", 1, dq, func() client.Reply { r := dist; r.Dist = graph.Unreachable; return r }},
		{"reply for another pair", 1, dq, func() client.Reply { r := dist; r.V = (r.V + 1) % 300; return r }},
		{"unknown generation", 7, dq, func() client.Reply { return dist }},
		{"path with a non-spanner hop", 1, pq, func() client.Reply {
			r := clonePath(path)
			r.Path[1] = nonEdge(r.Path[0], bs.Spanner.Has)
			return r
		}},
		{"path length misreported", 1, pq, func() client.Reply { r := path; r.Dist++; return r }},
		{"path ends elsewhere", 1, pq, func() client.Reply { r := clonePath(path); r.Path = r.Path[:len(r.Path)-1]; return r }},
		{"route with a non-edge hop", 1, rq, func() client.Reply {
			r := clonePath(route)
			r.Path[1] = nonEdge(r.Path[0], g.HasEdge)
			return r
		}},
		{"route beyond its bound", 1, rq, func() client.Reply {
			r := route
			b := r.Dist - 1
			r.Bound = &b
			return r
		}},
		{"error for a connected pair", 1, rq, func() client.Reply { r := route; r.Err = "serve: no route"; return r }},
	}
	for _, tc := range cases {
		before := c.Violations
		if err := c.check(tc.gen, tc.q, tc.r()); err == nil {
			t.Errorf("%s: tampered reply accepted", tc.name)
		}
		if c.Violations != before+1 {
			t.Errorf("%s: violations %d, want %d", tc.name, c.Violations, before+1)
		}
	}
}

// A reply is judged against the generation that answered it: the same
// answer can be right for one generation and wrong for another.
func TestCheckerUsesTheAnsweringGeneration(t *testing.T) {
	path := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	shortcut := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	all := func(g *graph.Graph) *graph.EdgeSet {
		s := graph.NewEdgeSet(g.M())
		g.ForEachEdge(s.Add)
		return s
	}
	c := newChecker()
	c.addGen(1, path, all(path), 1)
	c.addGen(2, shortcut, all(shortcut), 1)
	q := client.Query{Type: "dist", U: 0, V: 3}
	old := client.Reply{Type: "dist", U: 0, V: 3, Dist: 3}
	if err := c.check(1, q, old); err != nil {
		t.Fatalf("generation 1 answer rejected: %v", err)
	}
	if err := c.check(2, q, old); err == nil {
		t.Fatal("generation 1's distance accepted for generation 2 (stretch 1)")
	}
}
