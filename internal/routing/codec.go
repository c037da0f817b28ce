package routing

import (
	"errors"
	"fmt"

	"spanner/internal/graph"
	"spanner/internal/wordio"
)

// Flat word-stream codec for a built routing scheme, following the same
// conventions as the oracle codec and the distsim checkpoints: length
// prefixes, deterministic order, bounds-checked decoding. Only the
// irreducible state is serialized — the landmark set, the per-tree BFS
// parent arrays, the vicinity-ball tables and the addresses; DFS intervals
// and children lists are recomputed deterministically on decode (the same
// dfsIntervals call New makes), so a decoded scheme's NextHop and Route
// decisions are identical to the encoded one's. Each vertex's ball table is
// -1 (absent) or its entry count followed by (w, hop) pairs in strictly
// ascending w: the direct table's CSR row exactly as stored.

var errTruncated = errors.New("routing: truncated stream")

// WordCount returns the length of the Words stream without encoding it.
func (s *Scheme) WordCount() int {
	n, t := s.g.N(), len(s.landmarks)
	return 2 + t + t*n + n + 2*s.direct.Entries() + 2*n
}

// AppendWords appends the scheme's word stream (everything except the
// graph), little-endian, to b. Encoding the same scheme twice yields
// identical bytes.
func (s *Scheme) AppendWords(b []byte) []byte {
	n := s.g.N()
	b = wordio.Append(b, int64(n))
	b = wordio.Append(b, int64(len(s.landmarks)))
	for _, l := range s.landmarks {
		b = wordio.Append(b, int64(l))
	}
	for _, parent := range s.toLandmark {
		for _, p := range parent {
			b = wordio.Append(b, int64(p))
		}
	}
	for v := int32(0); int(v) < n; v++ {
		if !s.direct.Has(v) {
			b = wordio.Append(b, -1)
			continue
		}
		keys, hops := s.direct.Row(v)
		b = wordio.Append(b, int64(len(keys)))
		for j, w := range keys {
			b = wordio.Append(b, int64(w))
			b = wordio.Append(b, int64(hops[j]))
		}
	}
	for _, a := range s.addr {
		b = wordio.Append(b, int64(a.Landmark))
		b = wordio.Append(b, int64(a.DFS))
	}
	return b
}

// Words returns the scheme's word stream as a slice.
func (s *Scheme) Words() []int64 {
	return wordio.ToWords(s.AppendWords(make([]byte, 0, 8*s.WordCount())))
}

// FromWords reconstructs a scheme over g from a Words stream.
func FromWords(g *graph.Graph, words []int64) (*Scheme, error) {
	return Decode(g, wordio.FromWords(words))
}

// Decode reconstructs a scheme over g from the little-endian bytes of a
// Words stream, reading them in place. Ball-table keys that are not
// strictly ascending are refused with graph.ErrUnsortedRow.
func Decode(g *graph.Graph, data []byte) (*Scheme, error) {
	r := &wordio.Reader{Buf: data, Trunc: errTruncated}
	n := int(r.Get())
	t := int(r.Get())
	if r.Err != nil {
		return nil, r.Err
	}
	if n != g.N() {
		return nil, fmt.Errorf("routing: stream is for %d vertices, graph has %d", n, g.N())
	}
	if t < 0 || t > n {
		return nil, fmt.Errorf("routing: implausible landmark count %d", t)
	}
	if r.Len()-r.Pos < t*(1+n)+3*n {
		return nil, fmt.Errorf("%w: %d words for %d landmark trees", errTruncated, r.Len()-r.Pos, t)
	}
	s := &Scheme{
		g:          g,
		landmarks:  make([]int32, t),
		toLandmark: rows(make([]int32, t*n), t, n),
		addr:       make([]Address, n),
	}
	for i := 0; i < t; i++ {
		l := r.Get()
		if l < 0 || int(l) >= n {
			return nil, fmt.Errorf("routing: landmark %d out of range [0,%d)", l, n)
		}
		s.landmarks[i] = int32(l)
	}
	if dup := s.indexLandmarks(); dup >= 0 {
		return nil, fmt.Errorf("routing: duplicate landmark %d", dup)
	}
	for i, parent := range s.toLandmark {
		for v := range parent {
			p := r.Get()
			if p < int64(graph.Unreachable) || int(p) >= n {
				return nil, fmt.Errorf("routing: tree %d parent of %d out of range: %d", i, v, p)
			}
			parent[v] = int32(p)
		}
	}
	s.buildTrees()
	s.direct = graph.NewTable(n, (r.Len()-r.Pos-3*n)/2)
	for v := 0; v < n; v++ {
		c := r.Get()
		if r.Err != nil {
			return nil, r.Err
		}
		if c < 0 {
			if c != -1 {
				return nil, fmt.Errorf("routing: corrupt table length %d", c)
			}
			s.direct.EndRow(false)
			continue
		}
		if c > int64(r.Len()-r.Pos)/2 {
			return nil, fmt.Errorf("routing: truncated table of vertex %d", v)
		}
		for j := int64(0); j < c; j++ {
			w := int32(r.Get())
			hop := r.Get()
			if hop < 0 || int(hop) >= n {
				return nil, fmt.Errorf("routing: next hop %d out of range", hop)
			}
			if err := s.direct.Append(w, int32(hop)); err != nil {
				return nil, fmt.Errorf("routing: table of vertex %d at key %d: %w", v, w, err)
			}
		}
		s.direct.EndRow(true)
	}
	for v := 0; v < n; v++ {
		l := r.Get()
		dfs := r.Get()
		if r.Err != nil {
			return nil, r.Err
		}
		if l != int64(graph.Unreachable) {
			if _, ok := s.LandmarkIndexOf(int32(l)); !ok || int64(int32(l)) != l {
				return nil, fmt.Errorf("routing: address of %d names non-landmark %d", v, l)
			}
		}
		s.addr[v] = Address{V: int32(v), Landmark: int32(l), DFS: int32(dfs)}
	}
	if r.Pos != r.Len() || len(data)%8 != 0 {
		return nil, fmt.Errorf("routing: %d trailing words", r.Len()-r.Pos)
	}
	return s, nil
}

// LandmarkIndexOf returns the tree index of landmark l.
func (s *Scheme) LandmarkIndexOf(l int32) (int, bool) {
	if l < 0 || int(l) >= len(s.landmarkIdx) || s.landmarkIdx[l] < 0 {
		return 0, false
	}
	return int(s.landmarkIdx[l]), true
}

// LandmarkDistances returns, for each landmark tree t, the exact distance
// from every vertex to landmark t along its BFS tree (graph.Unreachable for
// vertices outside the landmark's component). The arrays are derived from
// the parent pointers by memoized pointer-chasing, so computing them costs
// O(t·n); the serving layer caches the result once per loaded snapshot and
// reads it lock-free afterwards.
func (s *Scheme) LandmarkDistances() [][]int32 {
	n := s.g.N()
	out := rows(make([]int32, len(s.landmarks)*n), len(s.landmarks), n)
	chain := make([]int32, 0, 64)
	for t, l := range s.landmarks {
		depth := out[t]
		for v := range depth {
			depth[v] = graph.Unreachable
		}
		depth[l] = 0
		parent := s.toLandmark[t]
		for v := int32(0); int(v) < n; v++ {
			if depth[v] != graph.Unreachable || parent[v] == graph.Unreachable {
				continue
			}
			chain = chain[:0]
			x := v
			// Walk up until a resolved vertex, a dead end, or (on corrupt
			// parent data) a cycle detected by the chain-length bound.
			for depth[x] == graph.Unreachable && parent[x] != graph.Unreachable && parent[x] != x && len(chain) <= n {
				chain = append(chain, x)
				x = parent[x]
			}
			base := depth[x]
			for i := len(chain) - 1; i >= 0; i-- {
				if base != graph.Unreachable {
					base++
				}
				depth[chain[i]] = base
			}
		}
	}
	return out
}
