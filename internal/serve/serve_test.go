package serve

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/graph"
)

// testArtifact builds a deterministic artifact: ConnectedGnp graph with a
// BFS-forest-plus-extras spanner.
func testArtifact(t testing.TB, n int, seed int64) *artifact.Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ConnectedGnp(n, 10/float64(n), rng)
	sp := graph.NewEdgeSet(g.N())
	_, parent := g.BFSWithParents(0)
	for v := int32(0); int(v) < g.N(); v++ {
		if parent[v] != graph.Unreachable && parent[v] != v {
			sp.Add(v, parent[v])
		}
	}
	g.ForEachEdge(func(u, v int32) {
		if (u+2*v)%5 == 0 {
			sp.Add(u, v)
		}
	})
	a, err := artifact.Build(g, sp, "test", 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnswersMatchDirectCalls(t *testing.T) {
	a := testArtifact(t, 200, 1)
	e, err := New(a, Config{Shards: 4, CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spg := a.Spanner.ToGraph(a.Graph.N())
	for u := int32(0); int(u) < a.Graph.N(); u += 7 {
		spDist := spg.BFS(u)
		for v := int32(0); int(v) < a.Graph.N(); v += 5 {
			d, err := e.Dist(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if want := a.Oracle.Query(u, v); d != want {
				t.Fatalf("Dist(%d,%d) = %d, want oracle answer %d", u, v, d, want)
			}
			p, err := e.Path(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if spDist[v] == graph.Unreachable {
				if p != nil {
					t.Fatalf("Path(%d,%d) returned a path for a disconnected pair", u, v)
				}
			} else {
				if int32(len(p)-1) != spDist[v] {
					t.Fatalf("Path(%d,%d) length %d, want spanner distance %d", u, v, len(p)-1, spDist[v])
				}
				if p[0] != u || p[len(p)-1] != v {
					t.Fatalf("Path(%d,%d) endpoints wrong: %v", u, v, p)
				}
				for i := 1; i < len(p); i++ {
					if !spg.HasEdge(p[i-1], p[i]) {
						t.Fatalf("Path(%d,%d) uses non-spanner edge (%d,%d)", u, v, p[i-1], p[i])
					}
				}
			}
			rp, err := e.Route(u, v)
			wp, werr := a.Routing.Route(u, v)
			if (err == nil) != (werr == nil) {
				t.Fatalf("Route(%d,%d) error mismatch: %v vs %v", u, v, err, werr)
			}
			if len(rp) != len(wp) {
				t.Fatalf("Route(%d,%d) length mismatch", u, v)
			}
			for i := range rp {
				if rp[i] != wp[i] {
					t.Fatalf("Route(%d,%d) hop %d mismatch", u, v, i)
				}
			}
		}
	}
}

func TestCacheHitsAreIdentical(t *testing.T) {
	a := testArtifact(t, 150, 2)
	e, err := New(a, Config{Shards: 2, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, typ := range []QueryType{QueryDist, QueryPath, QueryRoute} {
		first := e.Query(Request{Type: typ, U: 3, V: 77})
		second := e.Query(Request{Type: typ, U: 3, V: 77})
		if first.Cached {
			t.Fatalf("%v: first query must be a miss", typ)
		}
		if !second.Cached {
			t.Fatalf("%v: second query must be a hit", typ)
		}
		if first.Dist != second.Dist || len(first.Path) != len(second.Path) || first.Bound != second.Bound {
			t.Fatalf("%v: cached answer differs", typ)
		}
	}
}

func TestBadInputsAreTyped(t *testing.T) {
	a := testArtifact(t, 50, 3)
	e, err := New(a, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if r := e.Query(Request{Type: QueryDist, U: -1, V: 2}); !errors.Is(r.Err, ErrBadVertex) {
		t.Fatalf("negative vertex: %v", r.Err)
	}
	if r := e.Query(Request{Type: QueryDist, U: 0, V: int32(a.Graph.N())}); !errors.Is(r.Err, ErrBadVertex) {
		t.Fatalf("overflow vertex: %v", r.Err)
	}
	if r := e.Query(Request{Type: QueryType(9), U: 0, V: 1}); !errors.Is(r.Err, ErrBadQuery) {
		t.Fatalf("bad type: %v", r.Err)
	}
	if _, err := ParseQueryType("nope"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("parse: %v", err)
	}
}

func TestDeadlineRejection(t *testing.T) {
	a := testArtifact(t, 50, 4)
	e, err := New(a, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	r := e.Query(Request{Type: QueryDist, U: 0, V: 1, Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(r.Err, ErrDeadline) {
		t.Fatalf("expired deadline: got %v, want ErrDeadline", r.Err)
	}
}

func TestAdmissionControlOverload(t *testing.T) {
	a := testArtifact(t, 50, 5)
	e, err := New(a, Config{Shards: 1, QueueDepth: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Block the single worker so the queue backs up deterministically.
	release := make(chan struct{})
	blocked := make(chan struct{})
	e.testHook = func() {
		close(blocked)
		<-release
	}
	var wg sync.WaitGroup
	var first Reply
	wg.Add(1)
	if !e.submit(Request{Type: QueryDist, U: 0, V: 1}, &first, &wg) {
		t.Fatal("first submit rejected")
	}
	<-blocked // worker is now executing (and stuck); queue is empty
	e.testHook = nil

	var queued Reply
	wg.Add(1)
	if !e.submit(Request{Type: QueryDist, U: 0, V: 1}, &queued, &wg) {
		t.Fatal("second submit should occupy the queue slot")
	}
	var rejected Reply
	wg.Add(1)
	if e.submit(Request{Type: QueryDist, U: 0, V: 1}, &rejected, &wg) {
		t.Fatal("third submit should be rejected")
	}
	wg.Done() // the rejected submit never reaches a worker
	if !errors.Is(rejected.Err, ErrOverloaded) {
		t.Fatalf("overload: got %v, want ErrOverloaded", rejected.Err)
	}
	close(release)
	wg.Wait()
	if first.Err != nil || queued.Err != nil {
		t.Fatalf("admitted queries must complete: %v / %v", first.Err, queued.Err)
	}
}

func TestCloseDrainsQueuedWork(t *testing.T) {
	a := testArtifact(t, 100, 6)
	e, err := New(a, Config{Shards: 2, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	const inflight = 64
	var wg sync.WaitGroup
	replies := make([]Reply, inflight)
	var admitted int
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		if e.submit(Request{Type: QueryDist, U: int32(i % 100), V: int32((i * 7) % 100)}, &replies[i], &wg) {
			admitted++
		} else {
			wg.Done()
		}
	}
	e.Close() // must drain, not drop
	wg.Wait()
	for i := 0; i < admitted; i++ {
		if replies[i].Err != nil {
			t.Fatalf("admitted query %d dropped during drain: %v", i, replies[i].Err)
		}
	}
	// After Close, new queries are rejected with ErrClosed.
	if r := e.Query(Request{Type: QueryDist, U: 0, V: 1}); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("post-close: got %v, want ErrClosed", r.Err)
	}
	e.Close() // idempotent
}

func TestHotSwapInvalidatesCachesAndChangesAnswers(t *testing.T) {
	a1 := testArtifact(t, 150, 7)
	// Same graph, different oracle/routing seed: answers may differ, and the
	// generation id must tell them apart.
	a2, err := artifact.Build(a1.Graph, a1.Spanner, "test", 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(a1, Config{Shards: 1, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gen1 := e.SnapshotID()
	r1 := e.Query(Request{Type: QueryDist, U: 2, V: 140})
	if r1.SnapshotID != gen1 {
		t.Fatal("reply not stamped with generation")
	}
	if want := a1.Oracle.Query(2, 140); r1.Dist != want {
		t.Fatalf("gen1 answer %d, want %d", r1.Dist, want)
	}
	gen2, err := e.Swap(a2)
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen1 {
		t.Fatal("generation must increase")
	}
	r2 := e.Query(Request{Type: QueryDist, U: 2, V: 140})
	if r2.SnapshotID != gen2 {
		t.Fatalf("post-swap reply from generation %d, want %d", r2.SnapshotID, gen2)
	}
	if r2.Cached {
		t.Fatal("swap must invalidate the shard caches")
	}
	if want := a2.Oracle.Query(2, 140); r2.Dist != want {
		t.Fatalf("gen2 answer %d, want new oracle's %d", r2.Dist, want)
	}
}

func TestQueryBatchKeepsOrder(t *testing.T) {
	a := testArtifact(t, 120, 8)
	e, err := New(a, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reqs := make([]Request, 0, 90)
	for i := 0; i < 30; i++ {
		u, v := int32(i), int32((i*13+7)%120)
		reqs = append(reqs,
			Request{Type: QueryDist, U: u, V: v},
			Request{Type: QueryPath, U: u, V: v},
			Request{Type: QueryRoute, U: u, V: v})
	}
	replies, err := e.QueryBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != len(reqs) {
		t.Fatal("reply count mismatch")
	}
	for i, r := range replies {
		if r.Type != reqs[i].Type || r.U != reqs[i].U || r.V != reqs[i].V {
			t.Fatalf("reply %d out of order: %+v vs %+v", i, r, reqs[i])
		}
		if r.Type == QueryDist {
			if want := a.Oracle.Query(r.U, r.V); r.Dist != want {
				t.Fatalf("batch dist (%d,%d) = %d, want %d", r.U, r.V, r.Dist, want)
			}
		}
	}
}

func TestRouteBoundIsSound(t *testing.T) {
	a := testArtifact(t, 150, 9)
	e, err := New(a, Config{Shards: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := e.Snapshot()
	for u := int32(0); int(u) < 150; u += 11 {
		for v := int32(0); int(v) < 150; v += 7 {
			if u == v {
				continue
			}
			r := e.Query(Request{Type: QueryRoute, U: u, V: v})
			if r.Err != nil {
				continue
			}
			bound := snap.RouteBound(u, v)
			if bound == graph.Unreachable {
				continue
			}
			// The served route takes the landmark route unless a vicinity
			// ball shortcut is strictly better, so the cached-landmark bound
			// dominates the hop count.
			if r.Dist > bound {
				t.Fatalf("route (%d,%d): %d hops exceeds landmark bound %d", u, v, r.Dist, bound)
			}
		}
	}
}
