// Package artifact persists a completed build — the input graph, the
// spanner edge set, a Thorup–Zwick distance oracle and a compact routing
// scheme — as one versioned, checksummed binary file, so that building
// (an expensive one-time distributed computation) and serving (cheap
// queries against the result) are decoupled processes: a build farm writes
// artifacts, query daemons memory-load and hot-swap them.
//
// The format follows the repo's word-stream conventions (the reliable
// transport's wire frames and the distsim checkpoints): the artifact is a
// flat little-endian int64 stream with a magic word, a version word,
// length-prefixed sections, and an FNV-1a checksum footer over everything
// before it. Encoding is deterministic — the same build always produces the
// same bytes — and decoding is bounds-checked: truncated, corrupted or
// version-skewed inputs return typed errors and never panic (fuzzed by
// FuzzArtifactDecode).
package artifact

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"spanner/internal/graph"
	"spanner/internal/oracle"
	"spanner/internal/routing"
	"spanner/internal/wordio"
)

const (
	// magic spells "SPANART1" as little-endian ASCII.
	magic   int64 = 0x3154_5241_4e41_5053
	version int64 = 1
)

// Typed decode failures, matchable with errors.Is through any wrapping.
var (
	// ErrTruncated reports input shorter than its own length prefixes claim.
	ErrTruncated = errors.New("artifact: truncated input")
	// ErrChecksum reports an FNV footer mismatch (bit rot, torn write).
	ErrChecksum = errors.New("artifact: checksum mismatch")
	// ErrMagic reports input that is not an artifact at all.
	ErrMagic = errors.New("artifact: bad magic (not an artifact file)")
	// ErrVersion reports an artifact written by an incompatible format
	// version.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrCorrupt reports structurally invalid content behind a valid
	// checksum (hand-edited or adversarial input).
	ErrCorrupt = errors.New("artifact: corrupt content")
)

// Artifact is a complete, self-contained serving snapshot.
type Artifact struct {
	// Algo records which builder produced Spanner (provenance only).
	Algo string
	// Seed is the RNG seed the oracle and routing scheme were built with.
	Seed int64
	// K is the oracle's stretch parameter (stretch 2K−1).
	K int

	Graph   *graph.Graph
	Spanner *graph.EdgeSet
	Oracle  *oracle.Oracle
	Routing *routing.Scheme
}

// Build assembles an artifact from a finished spanner construction: it
// builds the distance oracle and routing scheme over g (deterministically
// from seed) and bundles them with the spanner for serving.
func Build(g *graph.Graph, spanner *graph.EdgeSet, algo string, k int, seed int64) (*Artifact, error) {
	if g == nil || spanner == nil {
		return nil, fmt.Errorf("artifact: Build requires a graph and a spanner")
	}
	orc, err := oracle.New(g, k, seed)
	if err != nil {
		return nil, err
	}
	rt, err := routing.New(g, seed)
	if err != nil {
		return nil, err
	}
	return &Artifact{Algo: algo, Seed: seed, K: k, Graph: g, Spanner: spanner, Oracle: orc, Routing: rt}, nil
}

// fnvWords folds FNV-1a over a word slice — the same integrity footer the
// reliable wire format and the distsim checkpoints use.
func fnvWords(words []int64) int64 { return wordio.FNV(wordio.FromWords(words)) }

// wordCount returns the length of the artifact's word stream (without the
// checksum footer) without encoding it.
func (a *Artifact) wordCount() int {
	return 5 + len(a.Algo) + 2 + a.Graph.M() + 1 + a.Spanner.Len() +
		1 + a.Oracle.WordCount() + 1 + a.Routing.WordCount()
}

// appendWords appends the artifact's word stream (without the checksum
// footer), little-endian, to b.
func (a *Artifact) appendWords(b []byte) []byte {
	for _, w := range []int64{magic, version, a.Seed, int64(a.K), int64(len(a.Algo))} {
		b = wordio.Append(b, w)
	}
	for i := 0; i < len(a.Algo); i++ {
		b = wordio.Append(b, int64(a.Algo[i]))
	}
	b = wordio.Append(b, int64(a.Graph.N()))
	b = wordio.Append(b, int64(a.Graph.M()))
	a.Graph.ForEachEdge(func(u, v int32) { b = wordio.Append(b, graph.EdgeKey(u, v)) })
	spk := a.Spanner.Keys()
	slices.Sort(spk)
	b = wordio.Append(b, int64(len(spk)))
	for _, k := range spk {
		b = wordio.Append(b, k)
	}
	b = wordio.Append(b, int64(a.Oracle.WordCount()))
	b = a.Oracle.AppendWords(b)
	b = wordio.Append(b, int64(a.Routing.WordCount()))
	return a.Routing.AppendWords(b)
}

// body returns the artifact's word stream bytes in a buffer pre-sized for
// extra more words.
func (a *Artifact) body(extra int) []byte {
	return a.appendWords(make([]byte, 0, 8*(a.wordCount()+extra)))
}

// Words serializes the artifact to its word stream (without the checksum
// footer Marshal appends).
func (a *Artifact) Words() []int64 { return wordio.ToWords(a.body(0)) }

// Marshal renders the artifact as its on-disk bytes: the word stream plus
// FNV footer, little-endian, written straight into one pre-sized buffer.
func (a *Artifact) Marshal() []byte {
	b := a.body(1)
	return wordio.Append(b, wordio.FNV(b))
}

// Unmarshal decodes artifact bytes produced by Marshal, reading the words
// in place. All failures are typed (ErrTruncated, ErrChecksum, ErrMagic,
// ErrVersion, ErrCorrupt or a wrapped section error); malformed input
// never panics.
func Unmarshal(data []byte) (*Artifact, error) {
	body, err := decodeWords(data, magic, version, 8)
	if err != nil {
		return nil, err
	}
	return decodeBody(body)
}

// decodeBody decodes an artifact word stream (without footer) whose magic
// and version words are already checked.
func decodeBody(body []byte) (*Artifact, error) {
	r := &wordio.Reader{Buf: body, Pos: 2, Trunc: ErrTruncated}
	a := &Artifact{Seed: r.Get()}
	k := r.Get()
	if r.Err == nil && (k < 1 || k > 64) {
		return nil, fmt.Errorf("%w: implausible oracle parameter k=%d", ErrCorrupt, k)
	}
	a.K = int(k)
	nameLen := r.Count(1)
	name := make([]byte, nameLen)
	for i := range name {
		c := r.Get()
		if r.Err == nil && (c < 0 || c > 255) {
			return nil, fmt.Errorf("%w: algo name byte %d", ErrCorrupt, c)
		}
		name[i] = byte(c)
	}
	a.Algo = string(name)
	n := r.Get()
	if r.Err == nil && (n < 0 || n > 1<<31-1) {
		return nil, fmt.Errorf("%w: vertex count %d", ErrCorrupt, n)
	}
	m := r.Count(1)
	if r.Err != nil {
		return nil, r.Err
	}
	b := graph.NewBuilder(int(n))
	prev := int64(-1)
	for i := 0; i < m; i++ {
		key := r.Get()
		u, v := graph.UnpackEdgeKey(key)
		if key <= prev || u < 0 || v < 0 || int64(u) >= n || int64(v) >= n || u == v {
			return nil, fmt.Errorf("%w: graph edge key %d at index %d", ErrCorrupt, key, i)
		}
		prev = key
		b.AddEdge(u, v)
	}
	a.Graph = b.Build()
	if a.Graph.M() != m {
		return nil, fmt.Errorf("%w: %d duplicate graph edges", ErrCorrupt, m-a.Graph.M())
	}
	sp := r.Count(1)
	if r.Err != nil {
		return nil, r.Err
	}
	a.Spanner = graph.NewEdgeSet(sp)
	prev = -1
	for i := 0; i < sp; i++ {
		key := r.Get()
		u, v := graph.UnpackEdgeKey(key)
		if key <= prev || u < 0 || v < 0 || int64(u) >= n || int64(v) >= n || u == v {
			return nil, fmt.Errorf("%w: spanner edge key %d at index %d", ErrCorrupt, key, i)
		}
		if !a.Graph.HasEdge(u, v) {
			return nil, fmt.Errorf("%w: spanner edge (%d,%d) is not a graph edge", ErrCorrupt, u, v)
		}
		prev = key
		a.Spanner.AddKey(key)
	}
	ow := r.Slice(r.Count(1))
	rw := r.Slice(r.Count(1))
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Pos != r.Len() {
		return nil, fmt.Errorf("%w: %d trailing words", ErrCorrupt, r.Len()-r.Pos)
	}
	var err error
	if a.Oracle, err = oracle.Decode(a.Graph, ow); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if a.Routing, err = routing.Decode(a.Graph, rw); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return a, nil
}

// Save writes the artifact to path via a temp file and rename, so a killed
// writer never leaves a torn file under the final name (the same discipline
// as distsim.WriteWordsFile).
func Save(path string, a *Artifact) error {
	return writeAtomic(path, a.Marshal())
}

// Load memory-loads an artifact file written by Save.
func Load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
