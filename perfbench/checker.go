package main

// The answer checker: sampled exact-BFS checks of what each reply claims,
// against the generation that answered it.
//
//   - dist:  δ(u,v) ≤ d ≤ (2K−1)·δ(u,v), the oracle's stretch bound
//     (a reply flagged Degraded claims only the upper-bound half);
//   - path:  a walk u→v over the generation's spanner edges whose hop
//     count is the reported distance;
//   - route: a walk u→v over the generation's graph edges whose hop count
//     is the reported distance and at most the reported Bound;
//   - any type: "unreachable" exactly when BFS finds no path.
//
// Only each generation's graph and spanner are kept, not its artifact.

import (
	"fmt"

	"spanner/client"
	"spanner/internal/graph"
)

// generation is what the checker keeps of one served generation.
type generation struct {
	g       *graph.Graph
	spanner *graph.EdgeSet
	k       int // oracle K: dist answers lie within 2K−1
}

// checker validates sampled replies. Not safe for concurrent use: replies
// are sampled during a run and checked after it.
type checker struct {
	gens       map[int64]*generation
	Sampled    int
	Violations int
	First      error // first violation, for the report
	bfsSrc     int32
	bfsGen     *generation
	bfsDist    []int32
}

func newChecker() *checker { return &checker{gens: make(map[int64]*generation)} }

// addGen registers the generation replies stamp with id (an engine
// snapshot id, or a cluster generation under clusterserve).
func (c *checker) addGen(id int64, g *graph.Graph, spanner *graph.EdgeSet, k int) {
	c.gens[id] = &generation{g: g, spanner: spanner, k: k}
}

// check validates one reply to query q answered by generation id. It
// returns the violation (nil when the claim holds) and records it.
func (c *checker) check(id int64, q client.Query, r client.Reply) error {
	c.Sampled++
	err := c.verify(id, q, r)
	if err != nil {
		c.Violations++
		if c.First == nil {
			c.First = err
		}
	}
	return err
}

func (c *checker) verify(id int64, q client.Query, r client.Reply) error {
	gen := c.gens[id]
	if gen == nil {
		return fmt.Errorf("%s(%d,%d): answered by unknown generation %d", q.Type, q.U, q.V, id)
	}
	if r.U != q.U || r.V != q.V || r.Type != q.Type {
		return fmt.Errorf("%s(%d,%d): reply is for %s(%d,%d)", q.Type, q.U, q.V, r.Type, r.U, r.V)
	}
	d := c.exact(gen, q.U, q.V)
	if d == graph.Unreachable {
		// Churn can disconnect a vertex; "unreachable" is then the only
		// right answer.
		if r.Dist != graph.Unreachable || len(r.Path) > 0 {
			return fmt.Errorf("%s(%d,%d): pair unreachable in generation %d but answered %d", q.Type, q.U, q.V, id, r.Dist)
		}
		return nil
	}
	if r.Err != "" {
		return fmt.Errorf("%s(%d,%d): reply error %q for a connected pair (gen %d)", q.Type, q.U, q.V, r.Err, id)
	}
	switch q.Type {
	case "dist":
		if r.Dist < d {
			return fmt.Errorf("dist(%d,%d) = %d below the true distance %d (gen %d)", q.U, q.V, r.Dist, d, id)
		}
		if !r.Degraded && int64(r.Dist) > int64(2*gen.k-1)*int64(d) {
			return fmt.Errorf("dist(%d,%d) = %d exceeds stretch %d × %d (gen %d)", q.U, q.V, r.Dist, 2*gen.k-1, d, id)
		}
	case "path":
		if err := walk(r.Path, q.U, q.V, r.Dist, gen.spanner.Has); err != nil {
			return fmt.Errorf("path(%d,%d) gen %d: %w", q.U, q.V, id, err)
		}
	case "route":
		if err := walk(r.Path, q.U, q.V, r.Dist, gen.g.HasEdge); err != nil {
			return fmt.Errorf("route(%d,%d) gen %d: %w", q.U, q.V, id, err)
		}
		if r.Bound != nil && r.Dist > *r.Bound {
			return fmt.Errorf("route(%d,%d) gen %d: %d hops exceed its bound %d", q.U, q.V, id, r.Dist, *r.Bound)
		}
	default:
		return fmt.Errorf("unknown query type %q", q.Type)
	}
	return nil
}

// walk checks that p is a u→v walk of exactly hops edges, each present
// per has.
func walk(p []int32, u, v, hops int32, has func(a, b int32) bool) error {
	if u == v && len(p) <= 1 && hops == 0 {
		return nil
	}
	if len(p) == 0 {
		return fmt.Errorf("empty walk")
	}
	if p[0] != u || p[len(p)-1] != v {
		return fmt.Errorf("walk runs %d→%d", p[0], p[len(p)-1])
	}
	if int32(len(p)-1) != hops {
		return fmt.Errorf("walk has %d hops, reply says %d", len(p)-1, hops)
	}
	for i := 1; i < len(p); i++ {
		if !has(p[i-1], p[i]) {
			return fmt.Errorf("hop %d→%d is not an edge", p[i-1], p[i])
		}
	}
	return nil
}

// exact returns δ(u,v) in gen's graph, reusing the last BFS when the
// source repeats.
func (c *checker) exact(gen *generation, u, v int32) int32 {
	if c.bfsGen != gen || c.bfsSrc != u || c.bfsDist == nil {
		c.bfsDist = gen.g.BFS(u)
		c.bfsGen, c.bfsSrc = gen, u
	}
	return c.bfsDist[v]
}
