package oracle

import (
	"errors"
	"fmt"

	"spanner/internal/graph"
	"spanner/internal/wordio"
)

// Flat word-stream codec for a built oracle, following the conventions of
// the distsim checkpoints and the reliable-transport wire format: every
// structure is a length-prefixed int64 stream in a deterministic order, and
// decoding is bounds-checked so corrupt input returns an error instead of
// panicking. The stream is, in order: k, n; level[v]; witness/distTo per
// level and vertex; per vertex either -1 (absent bunch) or the entry count
// followed by (w, δ) pairs in strictly ascending w — the bunch table's CSR
// rows exactly as stored, so neither side sorts; then the spanner edge
// keys, strictly ascending. The graph itself is not part of the stream —
// the serving artifact carries it once and passes it back to Decode.

var errTruncated = errors.New("oracle: truncated stream")

// WordCount returns the length of the Words stream without encoding it.
func (o *Oracle) WordCount() int {
	n := o.g.N()
	return 2 + n + 2*o.k*n + n + 2*o.bunch.Entries() + 1 + len(o.spanner)
}

// AppendWords appends the oracle's word stream (everything except the
// graph), little-endian, to b. Encoding the same oracle twice yields
// identical bytes.
func (o *Oracle) AppendWords(b []byte) []byte {
	n := o.g.N()
	b = wordio.Append(b, int64(o.k))
	b = wordio.Append(b, int64(n))
	for _, l := range o.level {
		b = wordio.Append(b, int64(l))
	}
	for i := 0; i < o.k; i++ {
		for v := 0; v < n; v++ {
			b = wordio.Append(b, int64(o.witness[i][v]))
			b = wordio.Append(b, int64(o.distTo[i][v]))
		}
	}
	for v := int32(0); int(v) < n; v++ {
		if !o.bunch.Has(v) {
			b = wordio.Append(b, -1)
			continue
		}
		keys, vals := o.bunch.Row(v)
		b = wordio.Append(b, int64(len(keys)))
		for j, w := range keys {
			b = wordio.Append(b, int64(w))
			b = wordio.Append(b, int64(vals[j]))
		}
	}
	b = wordio.Append(b, int64(len(o.spanner)))
	for _, k := range o.spanner {
		b = wordio.Append(b, k)
	}
	return b
}

// Words returns the oracle's word stream as a slice.
func (o *Oracle) Words() []int64 {
	return wordio.ToWords(o.AppendWords(make([]byte, 0, 8*o.WordCount())))
}

// FromWords reconstructs an oracle over g from a Words stream.
func FromWords(g *graph.Graph, words []int64) (*Oracle, error) {
	return Decode(g, wordio.FromWords(words))
}

// Decode reconstructs an oracle over g from the little-endian bytes of a
// Words stream, reading them in place. The decoded oracle's Query answers
// are identical to the encoded one's. Bunch keys that are not strictly
// ascending are refused with graph.ErrUnsortedRow.
func Decode(g *graph.Graph, data []byte) (*Oracle, error) {
	r := &wordio.Reader{Buf: data, Trunc: errTruncated}
	k := int(r.Get())
	n := int(r.Get())
	if r.Err != nil {
		return nil, r.Err
	}
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("oracle: implausible stretch parameter k=%d", k)
	}
	if n != g.N() {
		return nil, fmt.Errorf("oracle: stream is for %d vertices, graph has %d", n, g.N())
	}
	if r.Len()-r.Pos < n*(1+2*k+1)+1 {
		return nil, fmt.Errorf("%w: %d words for %d vertices", errTruncated, r.Len()-r.Pos, n)
	}
	o := &Oracle{
		g:       g,
		k:       k,
		level:   make([]int8, n),
		witness: make([][]int32, k),
		distTo:  make([][]int32, k),
	}
	for v := 0; v < n; v++ {
		lvl := r.Get()
		if lvl < 0 || int(lvl) >= k {
			return nil, fmt.Errorf("oracle: level %d of vertex %d out of [0,%d)", lvl, v, k)
		}
		o.level[v] = int8(lvl)
	}
	for i := 0; i < k; i++ {
		o.witness[i] = make([]int32, n)
		o.distTo[i] = make([]int32, n)
		for v := 0; v < n; v++ {
			o.witness[i][v] = int32(r.Get())
			o.distTo[i][v] = int32(r.Get())
		}
	}
	o.bunch = graph.NewTable(n, (r.Len()-r.Pos-n)/2)
	for v := 0; v < n; v++ {
		c := r.Get()
		if r.Err != nil {
			return nil, r.Err
		}
		if c < 0 {
			if c != -1 {
				return nil, fmt.Errorf("oracle: corrupt bunch length %d", c)
			}
			o.bunch.EndRow(false)
			continue
		}
		if c > int64(r.Len()-r.Pos)/2 {
			return nil, fmt.Errorf("oracle: truncated bunch of vertex %d", v)
		}
		for j := int64(0); j < c; j++ {
			w := int32(r.Get())
			if err := o.bunch.Append(w, int32(r.Get())); err != nil {
				return nil, fmt.Errorf("oracle: bunch of vertex %d at key %d: %w", v, w, err)
			}
		}
		o.bunch.EndRow(true)
	}
	o.spanner = make([]int64, r.Count(1))
	for i := range o.spanner {
		key := r.Get()
		u, v := graph.UnpackEdgeKey(key)
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n || u == v {
			return nil, fmt.Errorf("oracle: spanner edge (%d,%d) out of range", u, v)
		}
		if i > 0 && key <= o.spanner[i-1] {
			return nil, fmt.Errorf("oracle: spanner edge keys not strictly ascending at index %d", i)
		}
		o.spanner[i] = key
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Pos != r.Len() || len(data)%8 != 0 {
		return nil, fmt.Errorf("oracle: %d trailing words", r.Len()-r.Pos)
	}
	return o, nil
}
