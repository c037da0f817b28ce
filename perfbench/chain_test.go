package main

import (
	"math/rand"
	"testing"

	"spanner/internal/artifact"
	"spanner/internal/baseline"
	"spanner/internal/graph"
	"spanner/internal/serve"
)

// The whole chain, applied delta by delta to a fresh engine on the base
// artifact, must land on the producer's checksum at every step and at the
// end.
func TestDeltaChainReplaysToProducerChecksum(t *testing.T) {
	g := graph.ConnectedGnp(300, 8.0/300, rand.New(rand.NewSource(5)))
	bs, err := baseline.BaswanaSen(g, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := produceChain(nil, 0, g, bs.Spanner, chainConfig{K: 2, Batches: 6, BatchSize: 16, StreamSeed: 5, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Paths) != 6 || len(c.Sums) != 6 || len(c.Graphs) != 7 {
		t.Fatalf("chain has %d deltas, %d sums, %d generations", len(c.Paths), len(c.Sums), len(c.Graphs))
	}
	base, err := artifact.Load(c.BasePath)
	if err != nil {
		t.Fatal(err)
	}
	if base.Checksum() != c.BaseSum {
		t.Fatal("saved base differs from the producer's")
	}
	eng, err := serve.New(base, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i, p := range c.Paths {
		d, err := artifact.LoadDelta(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ApplyDelta(d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if got := eng.Snapshot().Art.Checksum(); got != c.Sums[i] {
			t.Fatalf("after delta %d checksum %#x, producer had %#x", i, uint64(got), uint64(c.Sums[i]))
		}
		if eng.Snapshot().Art.Graph.M() != c.Graphs[i+1].M() || eng.Snapshot().Art.Spanner.Len() != c.Spanners[i+1].Len() {
			t.Fatalf("after delta %d the engine's generation differs from the kept graph/spanner", i)
		}
	}
	if got, want := eng.Snapshot().Art.Checksum(), c.Sums[len(c.Sums)-1]; got != want {
		t.Fatalf("final checksum %#x, producer's %#x", uint64(got), uint64(want))
	}
	if _, _, err := replayChain(nil, 0, c); err != nil {
		t.Fatalf("in-process replay: %v", err)
	}
}
