// Package routing implements a compact routing scheme with stretch 3 and
// expected Õ(√n)-word tables, in the style of Thorup–Zwick [37] and Cowen
// [11] — the third application family the paper's conclusion highlights.
// The paper's closing open problem asks whether stretch (3−ε)d + polylog
// is achievable with o(n)-size tables; this package provides the stretch-3
// baseline that the question wants beaten, so the tradeoff is measurable.
//
// Scheme. Sample a landmark set L (rate √(ln n / n)). Every vertex v
// stores:
//
//   - a next hop toward every landmark (|L| entries);
//   - a next hop toward every w whose "vicinity ball" contains v, where
//     ball(w) = { x : δ(x,w) < δ(w, L) }. E|ball(w)| ≤ √(n/ln n) by the
//     geometric argument of the paper's Lemma 7, so these tables also have
//     expected size Õ(√n);
//   - for each landmark's BFS tree: its parent, its DFS interval and its
//     children's intervals (amortized O(1) per tree).
//
// The address of w is (w, ℓ_w, dfs_w), where dfs_w is w's DFS index in its
// own landmark's tree. Routing from v to w: if some table on the way knows
// w directly, follow those shortest-path hops; otherwise head to ℓ_w and
// descend its tree by DFS intervals. If δ(v,w) < δ(w,ℓ_w) then v lies in
// ball(w) and the route is exact; otherwise δ(w,ℓ_w) ≤ δ(v,w) and the
// route length is at most δ(v,ℓ_w) + δ(ℓ_w,w) ≤ δ(v,w) + 2δ(w,ℓ_w) ≤
// 3·δ(v,w). The ball's "closer-than" definition makes direct entries
// monotone along shortest paths, so handoffs between the two modes never
// lose progress.
//
// Layout. Every table is flat: the ball tables form one graph.Table (CSR
// rows of (w, next hop) sorted by w, looked up by binary search), and each
// landmark tree's parents, DFS intervals and children (a per-tree CSR) are
// rows of a few t·n arrays. Forwarding allocates nothing, and a scheme
// costs a fixed number of allocations however many vertices and trees it
// has.
package routing

import (
	"fmt"
	"math"
	"math/rand"

	"spanner/internal/graph"
)

// Address is the routing header target: what a sender must know about the
// destination (constant size).
type Address struct {
	V        int32 // destination vertex
	Landmark int32 // ℓ_V, the destination's nearest landmark
	DFS      int32 // V's DFS index in ℓ_V's tree
}

// Scheme holds all per-vertex routing tables. Every table is a flat
// array or CSR run, so lookups allocate nothing and a scheme costs no
// per-vertex headers.
type Scheme struct {
	g         *graph.Graph
	landmarks []int32
	// landmarkIdx[v] is v's tree index when v is a landmark, else -1.
	landmarkIdx []int32

	// toLandmark[t][v] = next hop from v toward landmark t (tree parent).
	toLandmark [][]int32
	// treeDFS[t][v] = DFS index of v in tree t; treeEnd[t][v] = largest DFS
	// index in v's subtree (interval routing).
	treeDFS [][]int32
	treeEnd [][]int32
	// The children of v in tree t, ascending, are
	// treeChildren[t][treeChildOff[t][v]:treeChildOff[t][v+1]].
	treeChildOff [][]int32
	treeChildren [][]int32

	// direct row v = next hop from v toward each w with v ∈ ball(w), keys
	// ascending; a row is present iff v lies in some ball.
	direct *graph.Table

	// addr[v] is v's address.
	addr []Address
}

// New builds the scheme. Expected preprocessing O(√n·m); expected table
// size Õ(√n) words per vertex.
func New(g *graph.Graph, seed int64) (*Scheme, error) {
	n := g.N()
	s := &Scheme{
		g:      g,
		direct: graph.NewTable(0, 0),
		addr:   make([]Address, n),
	}
	if n == 0 {
		return s, nil
	}
	rng := rand.New(rand.NewSource(seed))
	nf := float64(n)
	p := math.Sqrt(math.Log(nf)+1) / math.Sqrt(nf)
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			s.landmarks = append(s.landmarks, int32(v))
		}
	}
	// Every component needs a landmark (for tree-phase reachability).
	labels, count := g.ConnectedComponents()
	hit := make([]bool, count)
	for _, l := range s.landmarks {
		hit[labels[l]] = true
	}
	for v := int32(0); int(v) < n; v++ {
		if !hit[labels[v]] {
			hit[labels[v]] = true
			s.landmarks = append(s.landmarks, v)
		}
	}
	s.indexLandmarks()

	// δ(·,L) and each vertex's own landmark.
	distL, nearestL, _ := g.MultiSourceBFS(s.landmarks)

	// Landmark trees with DFS intervals.
	s.toLandmark = rows(make([]int32, len(s.landmarks)*n), len(s.landmarks), n)
	queue := make([]int32, 0, n)
	for i, l := range s.landmarks {
		queue = g.BFSTree(l, s.toLandmark[i], queue)
	}
	s.buildTrees()

	for v := int32(0); int(v) < n; v++ {
		lv := nearestL[v]
		a := Address{V: v, Landmark: lv}
		if lv != graph.Unreachable {
			a.DFS = s.treeDFS[s.landmarkIdx[lv]][v]
		}
		s.addr[v] = a
	}

	// Vicinity balls: truncated BFS from each non-landmark w to radius
	// δ(w,L)−1, recording next hops (BFS parents point back toward w).
	// Balls go in ascending w, so the (x, w, hop) triples arrive sorted by
	// w for every x and one counting sort groups them into the table.
	scratchDist := g.NewDistScratch()
	scratchHop := make([]int32, n)
	var xs, ws, hops []int32
	for w := int32(0); int(w) < n; w++ {
		radius := distL[w] - 1
		if radius < 0 {
			continue // w is a landmark (or isolated with one)
		}
		reached := g.TruncatedBFS(w, radius, scratchDist, nil)
		// Walk the reached list in BFS order to assign next hops toward w.
		scratchHop[w] = w
		for _, x := range reached {
			if x == w {
				continue
			}
			// Find a neighbor one step closer to w; BFS order guarantees
			// its hop is already set.
			for _, y := range g.Neighbors(x) {
				if scratchDist[y] == scratchDist[x]-1 {
					if scratchDist[y] == 0 {
						scratchHop[x] = w
					} else {
						scratchHop[x] = y
					}
					break
				}
			}
			xs, ws, hops = append(xs, x), append(ws, w), append(hops, scratchHop[x])
		}
		graph.ResetDistScratch(scratchDist, reached)
	}
	s.direct = graph.GroupTable(n, xs, ws, hops)
	return s, nil
}

// indexLandmarks fills landmarkIdx from landmarks; it reports the first
// landmark listed twice, or -1.
func (s *Scheme) indexLandmarks() int32 {
	s.landmarkIdx = make([]int32, s.g.N())
	for v := range s.landmarkIdx {
		s.landmarkIdx[v] = -1
	}
	for i, l := range s.landmarks {
		if s.landmarkIdx[l] >= 0 {
			return l
		}
		s.landmarkIdx[l] = int32(i)
	}
	return -1
}

// rows splits flat into t consecutive rows of length stride, so per-tree
// tables cost one allocation each however many trees there are.
func rows(flat []int32, t, stride int) [][]int32 {
	out := make([][]int32, t)
	for i := range out {
		out[i] = flat[i*stride : (i+1)*stride : (i+1)*stride]
	}
	return out
}

// buildTrees derives every landmark tree's DFS intervals and children from
// its parent pointers, which fully determine them.
func (s *Scheme) buildTrees() {
	n, t := s.g.N(), len(s.landmarks)
	s.treeDFS = rows(make([]int32, t*n), t, n)
	s.treeEnd = rows(make([]int32, t*n), t, n)
	s.treeChildOff = rows(make([]int32, t*(n+1)), t, n+1)
	s.treeChildren = rows(make([]int32, t*n), t, n)
	stack := make([]frame, 0, n)
	for i, l := range s.landmarks {
		s.treeChildren[i] = dfsIntervals(l, s.toLandmark[i], s.treeDFS[i], s.treeEnd[i],
			s.treeChildOff[i], s.treeChildren[i], stack)
	}
}

// frame is one level of dfsIntervals' explicit DFS stack.
type frame struct {
	v    int32
	next int32
}

// dfsIntervals fills, for the tree given by parent pointers rooted at root,
// a DFS numbering and per-vertex subtree intervals [dfs, end], plus the
// children in CSR form: the children of v, ascending, are
// children[off[v]:off[v+1]]. dfs, end and children have length n, off n+1;
// stack is scratch of capacity n. It returns children cut to its length.
func dfsIntervals(root int32, parent, dfs, end, off, children []int32, stack []frame) []int32 {
	n := len(parent)
	for v := range dfs {
		dfs[v] = graph.Unreachable
		end[v] = graph.Unreachable
		if p := parent[v]; p != graph.Unreachable && p != int32(v) {
			off[p]++
		}
	}
	// Inclusive prefix sums make off[p] the end of p's run; filling from
	// the highest child down moves it back to the start.
	for v := 1; v < n; v++ {
		off[v] += off[v-1]
	}
	if n > 0 {
		off[n] = off[n-1]
	}
	children = children[:off[n]]
	for v := int32(n) - 1; v >= 0; v-- {
		if p := parent[v]; p != graph.Unreachable && p != v {
			off[p]--
			children[off[p]] = v
		}
	}
	counter := int32(0)
	// Iterative DFS; the visited check keeps corrupt (cyclic) parent data
	// from looping, and bounds the stack by n.
	stack = append(stack[:0], frame{v: root, next: off[root]})
	dfs[root] = counter
	counter++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < off[f.v+1] {
			c := children[f.next]
			f.next++
			if dfs[c] != graph.Unreachable {
				continue
			}
			dfs[c] = counter
			counter++
			stack = append(stack, frame{v: c, next: off[c]})
			continue
		}
		end[f.v] = counter - 1
		stack = stack[:len(stack)-1]
	}
	return children
}

// AddressOf returns the routing address of v (what senders must know).
func (s *Scheme) AddressOf(v int32) Address { return s.addr[v] }

// Landmarks returns the sampled landmark set.
func (s *Scheme) Landmarks() []int32 { return s.landmarks }

// TableSize returns the number of table entries stored at v: landmark next
// hops, direct ball entries, and its tree-interval records.
func (s *Scheme) TableSize(v int32) int {
	size := len(s.landmarks) // next hop toward each landmark
	size += s.direct.Len(v)
	for _, off := range s.treeChildOff {
		size += 1 + int(off[v+1]-off[v]) // own interval + children intervals
	}
	return size
}

// NextHop computes the next hop from the current vertex toward the
// destination address, using only x's local tables and the header. The
// second return is false when the destination is unreachable from x.
func (s *Scheme) NextHop(x int32, dst Address) (int32, bool) {
	if x == dst.V {
		return x, true
	}
	// Direct (vicinity ball) entry wins: it is a shortest-path hop.
	if hop, ok := s.direct.Get(x, dst.V); ok {
		return hop, true
	}
	t, ok := s.LandmarkIndexOf(dst.Landmark)
	if !ok {
		return 0, false
	}
	if s.treeDFS[t][x] != graph.Unreachable && inSubtree(s, t, x, dst.DFS) {
		// Tree phase: descend to the child whose interval contains dst.
		off := s.treeChildOff[t]
		for _, c := range s.treeChildren[t][off[x]:off[x+1]] {
			if s.treeDFS[t][c] <= dst.DFS && dst.DFS <= s.treeEnd[t][c] {
				return c, true
			}
		}
		return 0, false // corrupt header
	}
	// Landmark phase: climb toward ℓ_w.
	hop := s.toLandmark[t][x]
	if hop == graph.Unreachable || hop == x {
		return 0, false
	}
	return hop, true
}

func inSubtree(s *Scheme, t int, x int32, dfs int32) bool {
	return s.treeDFS[t][x] <= dfs && dfs <= s.treeEnd[t][x]
}

// Route simulates a packet from u to v and returns the traversed path
// (starting at u, ending at v) or an error if routing fails or loops.
func (s *Scheme) Route(u, v int32) ([]int32, error) {
	dst := s.addr[v]
	path := []int32{u}
	x := u
	limit := 4*s.g.N() + 4
	for x != v {
		if len(path) > limit {
			return nil, fmt.Errorf("routing: loop detected from %d to %d", u, v)
		}
		hop, ok := s.NextHop(x, dst)
		if !ok {
			return nil, fmt.Errorf("routing: no route from %d to %d (stuck at %d)", u, v, x)
		}
		if hop != x && !s.g.HasEdge(x, hop) {
			return nil, fmt.Errorf("routing: table produced non-edge (%d,%d)", x, hop)
		}
		x = hop
		path = append(path, x)
	}
	return path, nil
}
