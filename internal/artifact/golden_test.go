package artifact

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"spanner/internal/baseline"
	"spanner/internal/graph"
)

// goldenChecksum pins the encoding of the artifact goldenArtifact builds.
// Any change to the oracle, routing or artifact builders or codecs that
// moves a single byte of the file fails TestGoldenChecksum.
const goldenChecksum = 0x0261523f621d1b25

// goldenArtifact builds a Baswana–Sen (k=2) artifact over gnp n=2000 with
// average degree 8, seed 1.
func goldenArtifact(t testing.TB) *Artifact {
	t.Helper()
	g := graph.ConnectedGnp(2000, 8.0/2000, rand.New(rand.NewSource(1)))
	bs, err := baseline.BaswanaSen(g, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build(g, bs.Spanner, "baswana-sen", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestGoldenChecksum proves the format did not move: the built artifact
// hashes to the pinned checksum, decodes and re-encodes to the same bytes,
// and the decoded oracle and routing tables answer exactly as the built
// ones on a grid of pairs.
func TestGoldenChecksum(t *testing.T) {
	a := goldenArtifact(t)
	if got := uint64(a.Checksum()); got != goldenChecksum {
		t.Fatalf("checksum %#016x, want %#016x", got, uint64(goldenChecksum))
	}
	blob := a.Marshal()
	d, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(d.Checksum()); got != goldenChecksum {
		t.Fatalf("decoded checksum %#016x, want %#016x", got, uint64(goldenChecksum))
	}
	if !bytes.Equal(d.Marshal(), blob) {
		t.Fatal("decoded artifact re-encodes to different bytes")
	}
	n := int32(a.Graph.N())
	for u := int32(0); u < n; u += 37 {
		if a.Routing.TableSize(u) != d.Routing.TableSize(u) {
			t.Fatalf("TableSize(%d): built %d, decoded %d", u, a.Routing.TableSize(u), d.Routing.TableSize(u))
		}
		for v := int32(0); v < n; v += 41 {
			if x, y := a.Oracle.Query(u, v), d.Oracle.Query(u, v); x != y {
				t.Fatalf("Query(%d,%d): built %d, decoded %d", u, v, x, y)
			}
			p, err1 := a.Routing.Route(u, v)
			q, err2 := d.Routing.Route(u, v)
			if (err1 == nil) != (err2 == nil) || !slices.Equal(p, q) {
				t.Fatalf("Route(%d,%d): built %v (%v), decoded %v (%v)", u, v, p, err1, q, err2)
			}
		}
	}
}

// unsortedStreams returns artifact files in which the first oracle bunch
// and the first routing ball table with two or more entries has its keys
// swapped (unsorted) or repeated (duplicate), each resealed behind a valid
// checksum.
func unsortedStreams(t testing.TB, a *Artifact) map[string][]byte {
	t.Helper()
	n := a.Graph.N()
	ow, rw := a.Oracle.Words(), a.Routing.Words()
	mutations := map[string]func(w []int64, row int){
		"unsorted":  func(w []int64, row int) { w[row+1], w[row+3] = w[row+3], w[row+1] },
		"duplicate": func(w []int64, row int) { w[row+3] = w[row+1] },
	}
	out := map[string][]byte{}
	for _, sec := range []struct {
		name  string
		words []int64
		rows  int // offset of the first per-vertex table
	}{
		{"oracle", ow, 2 + n + 2*a.K*n},
		{"routing", rw, 2 + int(rw[1])*(1+n)},
	} {
		row := sec.rows
		for v := 0; v < n && sec.words[row] < 2; v++ {
			row += 1 + 2*max(int(sec.words[row]), 0)
		}
		if sec.words[row] < 2 {
			t.Fatalf("%s: no table with two entries", sec.name)
		}
		for name, mutate := range mutations {
			bad := slices.Clone(sec.words)
			mutate(bad, row)
			o, r := bad, rw
			if sec.name == "routing" {
				o, r = ow, bad
			}
			out[sec.name+"-"+name] = wordsToBytes(withSections(t, a, o, r))
		}
	}
	return out
}

// withSections returns a's word stream with its oracle and routing
// sections replaced.
func withSections(t testing.TB, a *Artifact, ow, rw []int64) []int64 {
	t.Helper()
	words := a.Words()
	tail := 2 + len(a.Oracle.Words()) + len(a.Routing.Words())
	w := slices.Clone(words[:len(words)-tail])
	w = append(w, int64(len(ow)))
	w = append(w, ow...)
	w = append(w, int64(len(rw)))
	return append(w, rw...)
}

// TestDecodeRejectsUnsortedTables: a bunch or ball table whose keys are not
// strictly ascending is refused with ErrCorrupt through Unmarshal (and
// graph.ErrUnsortedRow from the section decoders), never merged.
func TestDecodeRejectsUnsortedTables(t *testing.T) {
	a := testArtifact(t, 120, 2, 3)
	for name, data := range unsortedStreams(t, a) {
		_, err := Unmarshal(data)
		if !errors.Is(err, ErrCorrupt) || !errors.Is(err, graph.ErrUnsortedRow) {
			t.Errorf("%s: got %v, want ErrCorrupt wrapping graph.ErrUnsortedRow", name, err)
		}
	}
}
