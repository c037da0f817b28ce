// Package oracle implements Thorup–Zwick approximate distance oracles
// [38], the application the paper's introduction and conclusion repeatedly
// motivate ("Perhaps the most interesting applications of spanners are in
// constructing distance labeling schemes, approximate distance oracles, and
// compact routing tables", Sect. 5). The oracle machinery is the sampling
// hierarchy + pruned-ball technique the Fibonacci spanner generalizes, so
// it doubles as an integration test of the same ideas in their classical
// form: stretch 2k−1 with O(k·n^{1+1/k}) expected space.
//
// The implementation also exposes the overlap with spanners directly:
// Spanner() returns the union of the oracle's shortest-path trees and
// bunches, a (2k−1)-spanner of the same size class.
//
// Layout. The bunches are one graph.Table: per-vertex CSR rows of (w, δ)
// sorted by w, with a presence bit per row, so Query is a binary search per
// level and allocates nothing. New fills the table without maps: one pruned
// BFS per cluster source, in ascending source order, then a counting sort
// of the emitted (x, w, δ) triples by x.
package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"spanner/internal/graph"
)

// Oracle answers approximate distance queries in O(k log |B|) time with
// stretch at most 2k−1, where |B| bounds a bunch's size.
type Oracle struct {
	g *graph.Graph
	k int

	// level[v] = largest i with v ∈ A_i (A_0 = V ⊇ A_1 ⊇ … ⊇ A_{k-1};
	// A_k = ∅).
	level []int8
	// parent p_i(v): witness[i][v] is the nearest A_i vertex and
	// distTo[i][v] = δ(v, A_i); graph.Unreachable when A_i misses v's
	// component.
	witness [][]int32
	distTo  [][]int32
	// bunch row v holds w -> δ(v,w) for w ∈ B(v), keys ascending; a row
	// is absent only where PruneBunches dropped it (or a decoded stream
	// said so), which keeps "pruned" distinct from "empty".
	bunch *graph.Table

	// spanner holds the oracle spanner's edge keys in ascending order, the
	// form the codec streams.
	spanner []int64
}

// New builds an oracle with parameter k ≥ 1. Expected preprocessing is
// O(k·m·n^{1/k}) and expected space O(k·n^{1+1/k}).
func New(g *graph.Graph, k int, seed int64) (*Oracle, error) {
	if k < 1 {
		return nil, fmt.Errorf("oracle: k must be >= 1, got %d", k)
	}
	n := g.N()
	o := &Oracle{
		g:       g,
		k:       k,
		level:   make([]int8, n),
		witness: make([][]int32, k),
		distTo:  make([][]int32, k),
		bunch:   graph.NewTable(0, 0),
	}
	if n == 0 {
		return o, nil
	}
	// Sample the hierarchy: promote with probability n^{-1/k}.
	rng := rand.New(rand.NewSource(seed))
	p := math.Pow(float64(n), -1/float64(k))
	for v := 0; v < n; v++ {
		lvl := int8(0)
		for i := 1; i < k; i++ {
			if rng.Float64() < p {
				lvl = int8(i)
			} else {
				break
			}
		}
		o.level[v] = lvl
	}
	// Guarantee A_{k-1} hits every connected component (Thorup–Zwick
	// assume A_{k-1} ≠ ∅ on a connected graph; per-component promotion of
	// the minimum vertex generalizes that and preserves every stretch
	// guarantee — promotions only shrink distances to the sets).
	if k > 1 {
		labels, count := g.ConnectedComponents()
		hit := make([]bool, count)
		for v := 0; v < n; v++ {
			if o.level[v] == int8(k-1) {
				hit[labels[v]] = true
			}
		}
		for v := 0; v < n; v++ {
			if !hit[labels[v]] {
				hit[labels[v]] = true
				o.level[v] = int8(k - 1)
			}
		}
	}

	// Per level: δ(·, A_i), witnesses, and shortest-path trees into the
	// spanner.
	sp := graph.NewEdgeSet(2 * n)
	levelSets := make([][]int32, k)
	for v := int32(0); int(v) < n; v++ {
		for i := 0; i <= int(o.level[v]); i++ {
			levelSets[i] = append(levelSets[i], v)
		}
	}
	for i := 0; i < k; i++ {
		dist, near, parentArr := g.MultiSourceBFS(levelSets[i])
		o.distTo[i] = dist
		o.witness[i] = near
		for v := int32(0); int(v) < n; v++ {
			if dist[v] >= 1 {
				sp.Add(v, parentArr[v])
			}
		}
	}

	o.bunch = o.floodClusters(sp)
	o.spanner = sortedKeys(sp)
	return o, nil
}

// floodClusters grows every cluster C(w) = {v : δ(v,w) < δ(v,A_{i+1})},
// w ∈ A_i \ A_{i+1}, with the Thorup–Zwick pruned BFS and returns the
// bunches, recording each entry's path edge into sp. Clusters do
// not interact, so it runs one BFS per source with a reusable stamp array:
// a source's FIFO order is exactly its subsequence of a simultaneous
// level-by-level flood of all sources, so every path edge is the same.
// Sources go in ascending order, so the (x, w, δ) triples already arrive
// sorted by w for every x and one counting sort groups them into the table.
func (o *Oracle) floodClusters(sp *graph.EdgeSet) *graph.Table {
	n := o.g.N()
	stamp := make([]int32, n) // stamp[x] = w+1 once x joined C(w)
	var queue, rows, keys, vals []int32
	for w := int32(0); int(w) < n; w++ {
		// x is pruned from C(w) at distance d when δ(x, A_{i+1}) ≤ d.
		var nextDist []int32
		if i := int(o.level[w]) + 1; i < o.k {
			nextDist = o.distTo[i]
			if nextDist[w] != graph.Unreachable && nextDist[w] <= 0 {
				continue
			}
		}
		stamp[w] = w + 1
		queue = append(queue[:0], w)
		rows, keys, vals = append(rows, w), append(keys, w), append(vals, 0)
		for lo, d := 0, int32(1); lo < len(queue); d++ {
			for hi := len(queue); lo < hi; lo++ {
				x := queue[lo]
				for _, y := range o.g.Neighbors(x) {
					if stamp[y] == w+1 {
						continue
					}
					if nextDist != nil && nextDist[y] != graph.Unreachable && nextDist[y] <= d {
						continue
					}
					stamp[y] = w + 1
					queue = append(queue, y)
					rows, keys, vals = append(rows, y), append(keys, w), append(vals, d)
					sp.Add(y, x)
				}
			}
		}
	}
	return graph.GroupTable(n, rows, keys, vals)
}

// Query returns an estimate of δ(u,v) with stretch at most 2k−1, or
// graph.Unreachable when u and v are disconnected. The classic
// Thorup–Zwick walk: climb witnesses, swapping the roles of u and v each
// level, until the current witness lands in the other endpoint's bunch.
func (o *Oracle) Query(u, v int32) int32 {
	if u == v {
		return 0
	}
	w := u
	i := 0
	for {
		if dv, ok := o.bunch.Get(v, w); ok {
			return o.distTo[i][u] + dv
		}
		i++
		if i >= o.k {
			return graph.Unreachable
		}
		u, v = v, u
		w = o.witness[i][u]
		if w == graph.Unreachable {
			return graph.Unreachable
		}
	}
}

// K returns the oracle's stretch parameter.
func (o *Oracle) K() int { return o.k }

// Size returns the number of stored bunch entries (the space term
// O(k·n^{1+1/k}) up to the per-entry constant).
func (o *Oracle) Size() int { return o.bunch.Entries() }

// Spanner returns the union of the oracle's shortest-path forests and
// bunch paths: a (2k−1)-spanner of expected size O(k·n^{1+1/k}).
// Each call returns a fresh set the caller may modify.
func (o *Oracle) Spanner() *graph.EdgeSet {
	s := graph.NewEdgeSet(len(o.spanner))
	for _, k := range o.spanner {
		s.AddKey(k)
	}
	return s
}

// sortedKeys returns s's edge keys in ascending order.
func sortedKeys(s *graph.EdgeSet) []int64 {
	keys := s.Keys()
	slices.Sort(keys)
	return keys
}

// PruneBunches returns a copy of the oracle whose bunches are kept only for
// vertices where keep[v] is true; every other bunch becomes absent. The
// witness, distance and bunch tables are shared (they are never mutated
// after New), so the copy costs only the bunch table's presence bits. Query(u,v) on the pruned
// copy is bit-identical to the original whenever both endpoints' bunches
// were kept — the Thorup–Zwick walk reads only bunch[u], bunch[v] and the
// global witness/distance rows of u and v. Queries touching a pruned
// endpoint are not meaningful (absent-row lookups are safe but can report
// Unreachable for connected pairs); callers must route such pairs elsewhere.
func (o *Oracle) PruneBunches(keep []bool) *Oracle {
	p := *o
	p.bunch = o.bunch.Prune(keep)
	return &p
}

// Covered reports whether vertex v's bunch is present (i.e. survived any
// PruneBunches call); only pairs of covered vertices get exact answers.
func (o *Oracle) Covered(v int32) bool {
	return v >= 0 && int(v) < o.bunch.N() && o.bunch.Has(v)
}
