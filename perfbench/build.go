package main

// Workload build: the paper's pipelines with no serving — graph
// generation, the distributed skeleton (Capped, D=4), the distributed
// Fibonacci spanner, distributed Baswana–Sen k=2 and the distributed
// oracle on distsim, then artifact.Build, encode and decode. Spanner sizes
// are checked against the paper's bounds and stretch on sampled pairs.
// This is what a reproducer waits on; every serving layer is idle.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/baseline"
	"spanner/internal/core"
	"spanner/internal/distsim"
	"spanner/internal/fibonacci"
	"spanner/internal/graph"
	"spanner/internal/oracle"
	"spanner/internal/routing"
	"spanner/internal/seq"
)

const (
	bdN       = 5000 // vertices; gnp at average degree bdDeg
	bdDeg     = 8.0
	bdK       = 2 // Baswana–Sen and oracle k
	bdD       = 4 // skeleton density parameter
	bdSources = 24
	bdSetups  = 5
	bdMinPass = 2
)

// pass is one pipeline pass's outputs and stage times.
type pass struct {
	g    *graph.Graph
	skel *core.DistributedResult
	fib  *fibonacci.DistributedResult
	bs   *baseline.BaswanaSenResult
	orc  *oracle.Oracle
	art  *artifact.Artifact

	bsM, orcM distsim.Metrics
	artBytes  int
	peakHeap  uint64
	counts    passCounts

	total, gen, skelD, fibD, bsD, orcD, artBuild, encode, decode time.Duration
	// cpu is the pass's CPU time, every thread included; artCPU that of
	// artifact.Build, encode and decode.
	cpu, artCPU time.Duration
}

// passCounts are a pass's deterministic counts: every pass of a run uses
// the same seed, so they must repeat exactly.
type passCounts struct {
	Edges    [3]int   // skeleton, Fibonacci, Baswana–Sen
	Messages [4]int64 // the three builders and the oracle on distsim
	Rounds   int
	ArtBytes int
}

// distsimTime is the pass's time inside the four distsim builders.
func (p *pass) distsimTime() time.Duration { return p.skelD + p.fibD + p.bsD + p.orcD }

// release drops the pass's graph, spanners, oracle and artifact, keeping
// its timings and counts, so kept passes do not inflate the live heap.
func (p *pass) release() { p.g, p.skel, p.fib, p.bs, p.orc, p.art = nil, nil, nil, nil, nil, nil }

// runPass runs the pipeline once on the graph drawn from seed, with each
// stage in a span when traced. With measureHeap it collects after every
// stage and records the peak live heap; such a pass is not timed.
func runPass(tr *tracer, seed int64, measureHeap bool) (*pass, error) {
	p := &pass{}
	root := tr.open("build pass", 0)
	defer tr.close(root)
	var ms runtime.MemStats
	heap := func() {
		if !measureHeap {
			return
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > p.peakHeap {
			p.peakHeap = ms.HeapAlloc
		}
	}
	var err error
	t0, c0 := time.Now(), selfCPU()
	p.gen = tr.timed("graph.ConnectedGnp", root, func() {
		p.g = graph.ConnectedGnp(bdN, bdDeg/bdN, rand.New(rand.NewSource(seed)))
	})
	heap()
	p.skelD = tr.timed("core.BuildSkeletonDistributed", root, func() {
		p.skel, err = core.BuildSkeletonDistributed(p.g, core.Options{D: bdD, Variant: core.Capped, Seed: buildSeed})
	})
	if err != nil {
		return nil, fmt.Errorf("skeleton: %w", err)
	}
	heap()
	p.fibD = tr.timed("fibonacci.BuildDistributed", root, func() {
		p.fib, err = fibonacci.BuildDistributed(p.g, fibonacci.Options{Seed: buildSeed})
	})
	if err != nil {
		return nil, fmt.Errorf("fibonacci: %w", err)
	}
	heap()
	p.bsD = tr.timed("baseline.BaswanaSenDistributed", root, func() {
		p.bs, p.bsM, err = baseline.BaswanaSenDistributed(p.g, bdK, buildSeed)
	})
	if err != nil {
		return nil, fmt.Errorf("baswana-sen: %w", err)
	}
	heap()
	p.orcD = tr.timed("oracle.NewDistributed", root, func() {
		p.orc, p.orcM, err = oracle.NewDistributed(p.g, bdK, buildSeed)
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	heap()
	a0 := selfCPU()
	p.artBuild = tr.timed("artifact.Build", root, func() {
		p.art, err = artifact.Build(p.g, p.bs.Spanner, "baswana-sen", bdK, buildSeed)
	})
	if err != nil {
		return nil, err
	}
	var blob []byte
	p.encode = tr.timed("artifact.Marshal", root, func() { blob = p.art.Marshal() })
	heap()
	var dec *artifact.Artifact
	p.decode = tr.timed("artifact.Unmarshal", root, func() { dec, err = artifact.Unmarshal(blob) })
	p.total, p.cpu = time.Since(t0), selfCPU()-c0
	p.artCPU = selfCPU() - a0
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	heap()
	p.artBytes = len(blob)
	if dec.Checksum() != p.art.Checksum() {
		return nil, fmt.Errorf("decoded artifact checksum differs from the built one")
	}
	p.counts = passCounts{
		Edges:    [3]int{p.skel.Spanner.Len(), p.fib.Spanner.Len(), p.bs.Spanner.Len()},
		Messages: [4]int64{p.skel.Metrics.Messages, p.fib.Metrics.Messages, p.bsM.Messages, p.orcM.Messages},
		Rounds:   p.skel.Metrics.Rounds + p.fib.Metrics.Rounds + p.bsM.Rounds + p.orcM.Rounds,
		ArtBytes: p.artBytes,
	}
	return p, nil
}

// truth is the stretch check's ground truth: exact BFS distances from
// sampled sources.
type truth struct {
	sources []int32
	dist    [][]int32
}

func newTruth(g *graph.Graph, seed int64) *truth {
	rng := rand.New(rand.NewSource(seed ^ 0x57e7c4))
	t := &truth{}
	for i := 0; i < bdSources; i++ {
		s := int32(rng.Intn(g.N()))
		t.sources = append(t.sources, s)
		t.dist = append(t.dist, g.BFS(s))
	}
	return t
}

// checkPass checks sizes against the paper's bounds and stretch on the
// sampled pairs, counting every pair checked and every violation.
func checkPass(c *checker, t *truth, p *pass) {
	n := p.g.N()
	fail := func(format string, args ...any) {
		c.Violations++
		if c.First == nil {
			c.First = fmt.Errorf(format, args...)
		}
	}
	if e, b := float64(p.skel.Spanner.Len()), seq.SkeletonSizeBound(n, bdD); e > b {
		fail("skeleton has %v edges, Lemma 6 bound %.0f", e, b)
	}
	if e, b := float64(p.fib.Spanner.Len()), p.fib.Params.SizeBound(); e > b {
		fail("fibonacci has %v edges, Lemma 8 bound %.0f", e, b)
	}
	if e, b := float64(p.bs.Spanner.Len()), bsSizeBound(n); e > b {
		fail("baswana-sen has %v edges, bound %.0f", e, b)
	}
	skelBound := core.DistortionBound(n, core.Options{D: bdD, Variant: core.Capped})
	o, ell := p.fib.Params.Order, p.fib.Params.Ell
	sk, fb, bs := p.skel.Spanner.ToGraph(n), p.fib.Spanner.ToGraph(n), p.bs.Spanner.ToGraph(n)
	for i, s := range t.sources {
		dg := t.dist[i]
		dk, df, db := sk.BFS(s), fb.BFS(s), bs.BFS(s)
		for v := int32(0); int(v) < n; v++ {
			d := dg[v]
			if d < 1 {
				continue
			}
			c.Sampled++
			if float64(dk[v]) > skelBound*float64(d) || dk[v] < d {
				fail("skeleton stretch at (%d,%d): %d vs %d, bound %.1f×", s, v, dk[v], d, skelBound)
			}
			if float64(df[v]) > fibonacci.DistortionBoundAt(int64(d), o, ell) || df[v] < d {
				fail("fibonacci distortion at (%d,%d): %d vs %d", s, v, df[v], d)
			}
			if db[v] > int32(2*bdK-1)*d || db[v] < d {
				fail("baswana-sen stretch at (%d,%d): %d vs %d", s, v, db[v], d)
			}
			if est := p.orc.Query(s, v); est < d || est > int32(2*bdK-1)*d {
				fail("distributed oracle at (%d,%d): %d vs %d", s, v, est, d)
			}
		}
	}
}

// bsSizeBound is Baswana–Sen's O(k·n^{1+1/k}) size bound with constant 1.
func bsSizeBound(n int) float64 { return bdK * math.Pow(float64(n), 1+1.0/bdK) }

func runBuild(e *env) (*report, error) {
	rep := newReport("build")
	c := newChecker()
	var setups, setupWall []float64
	var t *truth
	for i := 0; i < bdSetups; i++ {
		t0, c0 := time.Now(), selfCPU()
		sp := e.tr.open("setup", 0)
		g := graph.ConnectedGnp(bdN, bdDeg/bdN, rand.New(rand.NewSource(e.seed)))
		t = newTruth(g, e.seed)
		e.tr.close(sp)
		setups = append(setups, (selfCPU() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}

	// Untraced passes fill the measured seconds; a traced run then repeats
	// as many passes with spans on, for the overhead.
	var passes, tpasses []*pass
	start := time.Now()
	for len(passes) < bdMinPass || time.Since(start).Seconds() < e.seconds/float64(1+btoi(e.trace)) {
		gcSettle()
		p, err := runPass(nil, e.seed, false)
		if err != nil {
			return nil, err
		}
		if len(passes) == 0 {
			checkPass(c, t, p)
		} else if p.counts != passes[0].counts {
			c.Violations++
			if c.First == nil {
				c.First = fmt.Errorf("pass %d's counts differ from pass 1's at the same seed", len(passes)+1)
			}
		}
		// The traced run's per-layer figures read the first pass's outputs.
		if len(passes) > 0 || !e.trace {
			p.release()
		}
		passes = append(passes, p)
	}
	for e.trace && len(tpasses) < len(passes) {
		gcSettle()
		p, err := runPass(e.tr, e.seed, false)
		if err != nil {
			return nil, err
		}
		p.release()
		tpasses = append(tpasses, p)
	}
	rep.Attempted = len(passes) + len(tpasses)

	med := func(ps []*pass, f func(*pass) time.Duration) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = ms(f(p))
		}
		return medianFloat(xs)
	}
	passMS := med(passes, func(p *pass) time.Duration { return p.total })
	p0 := passes[0]
	if !e.trace {
		slowest := 0.0
		var rps []float64
		for _, p := range passes {
			slowest = math.Max(slowest, ms(p.total))
			rps = append(rps, float64(p.counts.Rounds)/p.distsimTime().Seconds())
		}
		// Peak RSS here would mostly measure where the collector happened
		// to run; an untimed pass that collects after every stage measures
		// what the pipeline keeps live.
		gcSettle()
		mp, err := runPass(nil, e.seed, true)
		if err != nil {
			return nil, err
		}
		if mp.counts != passes[0].counts {
			c.Violations++
			if c.First == nil {
				c.First = fmt.Errorf("the memory pass's counts differ from pass 1's at the same seed")
			}
		}
		rep.Violations, rep.FirstWrong = c.Violations, c.First
		rss, err := vmHWM(os.Getpid())
		if err != nil {
			return nil, err
		}
		rep.E2E["setup_s"] = medianFloat(setups)
		rep.E2E["op_cpu_us"] = med(passes, func(p *pass) time.Duration { return p.cpu }) * 1e3
		rep.E2E["gen_cpu_ms"] = med(passes, func(p *pass) time.Duration { return p.artCPU })
		rep.E2E["peak_mem_mb"] = float64(mp.peakHeap) / 1e6
		rep.E2E["artifact_mb"] = float64(p0.artBytes) / 1e6
		rep.named("build_s", passMS/1e3, "s per pass")
		rep.named("artifact build+encode+decode (wall)", med(passes, func(p *pass) time.Duration { return p.artBuild + p.encode + p.decode }), "ms")
		rep.named(fmt.Sprintf("build_s slowest (of %d passes)", len(passes)), slowest/1e3, "s")
		rep.named("setup (wall)", medianFloat(setupWall), "s")
		rep.named("build_rounds_per_s", medianFloat(rps), "rounds/s")
		rep.named("peak_heap_mb (live heap at stage ends)", float64(mp.peakHeap)/1e6, "MB")
		rep.named("process peak RSS (GC-timing dependent)", rss, "MB")
		rep.named("artifact_mb", float64(p0.artBytes)/1e6, "MB")
		rep.linef("checked %d sampled pairs on four spanners and the oracle", c.Sampled)
		return rep, nil
	}

	rep.Violations, rep.FirstWrong = c.Violations, c.First
	L := rep.Layer
	tMS := med(tpasses, func(p *pass) time.Duration { return p.total })
	L["obs.trace_overhead_pct"] = 100 * (tMS - passMS) / passMS
	n := p0.g.N()
	L["graph.gen_ms"] = med(passes, func(p *pass) time.Duration { return p.gen })
	L["core.dist_ms"] = med(passes, func(p *pass) time.Duration { return p.skelD })
	L["core.rounds"] = float64(p0.skel.Metrics.Rounds)
	L["core.edges"] = float64(p0.skel.Spanner.Len())
	L["core.size_ratio"] = float64(p0.skel.Spanner.Len()) / seq.SkeletonSizeBound(n, bdD)
	L["fibonacci.dist_ms"] = med(passes, func(p *pass) time.Duration { return p.fibD })
	L["fibonacci.rounds"] = float64(p0.fib.Metrics.Rounds)
	L["fibonacci.edges"] = float64(p0.fib.Spanner.Len())
	L["fibonacci.size_ratio"] = float64(p0.fib.Spanner.Len()) / p0.fib.Params.SizeBound()
	L["baseline.dist_ms"] = med(passes, func(p *pass) time.Duration { return p.bsD })
	L["baseline.rounds"] = float64(p0.bsM.Rounds)
	L["baseline.edges"] = float64(p0.bs.Spanner.Len())
	L["baseline.size_ratio"] = float64(p0.bs.Spanner.Len()) / bsSizeBound(n)
	L["oracle.dist_ms"] = med(passes, func(p *pass) time.Duration { return p.orcD })
	L["oracle.rounds"] = float64(p0.orcM.Rounds)
	var all distsim.Metrics
	for _, m := range []distsim.Metrics{p0.skel.Metrics, p0.fib.Metrics, p0.bsM, p0.orcM} {
		all.Add(m)
	}
	L["distsim.messages"] = float64(all.Messages)
	L["distsim.words"] = float64(all.Words)
	L["distsim.max_msg_words"] = float64(all.MaxMsgWords)
	L["distsim.rounds_per_s"] = float64(p0.counts.Rounds) / (med(passes, func(p *pass) time.Duration { return p.distsimTime() }) / 1e3)
	L["artifact.build_ms"] = med(passes, func(p *pass) time.Duration { return p.artBuild })
	L["artifact.encode_mb_s"] = float64(p0.artBytes) / 1e6 / (med(passes, func(p *pass) time.Duration { return p.encode }) / 1e3)
	L["artifact.decode_mb_s"] = float64(p0.artBytes) / 1e6 / (med(passes, func(p *pass) time.Duration { return p.decode }) / 1e3)
	L["verify.sampled"] = float64(c.Sampled)
	L["verify.violations"] = float64(c.Violations)

	// Attribution replays: the sequential oracle and routing builds inside
	// artifact.Build, the checksum walk, and the distsim builders at
	// GOMAXPROCS=1 against all cores.
	rp := e.tr.open("replay", 0)
	var err error
	L["oracle.new_ms"] = ms(e.tr.timed("oracle.New", rp, func() { _, err = oracle.New(p0.g, bdK, buildSeed) }))
	if err != nil {
		return nil, err
	}
	L["routing.new_ms"] = ms(e.tr.timed("routing.New", rp, func() { _, err = routing.New(p0.g, buildSeed) }))
	if err != nil {
		return nil, err
	}
	L["artifact.checksum_ms"] = ms(e.tr.timed("artifact.Checksum", rp, func() { p0.art.Checksum() }))
	gcSettle()
	prev := runtime.GOMAXPROCS(1)
	one, err := runPass(nil, e.seed, false)
	runtime.GOMAXPROCS(prev)
	e.tr.close(rp)
	if err != nil {
		return nil, err
	}
	L["distsim.speedup"] = ms(one.distsimTime()) / med(passes, func(p *pass) time.Duration { return p.distsimTime() })
	rep.linef("%d untraced passes, median %.1f ms; %d traced passes, median %.1f ms", len(passes), passMS, len(tpasses), tMS)
	return rep, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
