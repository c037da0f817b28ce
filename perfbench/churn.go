package main

// Workload churn-router: the replicated deployment. An in-process
// clusterserve.Cluster router (JSON data plane) fronts one spannerd
// -cluster replica. Reads over uniform pairs arrive open-loop, so the
// working set dwarfs the LRU and every generation swap empties the cache
// anyway; beside them a fixed-rate stream of deltas, produced during
// set-up, is committed through Cluster.Update's two-phase commit. It covers
// the JSON transport, the router hop, delta apply, snapshot swap and cache
// invalidation, and bypasses wire and the LRU's benefit.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"spanner/client"
	"spanner/internal/baseline"
	"spanner/internal/clusterserve"
	"spanner/internal/graph"
	"spanner/internal/oracle"
	"spanner/internal/routing"
)

const (
	crN        = 2000 // vertices; gnp at average degree crDeg
	crDeg      = 8.0
	crK        = 2
	crSetups   = 3
	crReadRate = 1000.0 // reads/s through the router
	// crUpdateEvery paces the delta stream; the chain holds one delta per
	// interval of the measured seconds.
	crUpdateEvery = time.Second
	crBatchSize   = 32
	crEvery       = 8 // keep one read reply in crEvery for the checker
)

// churnSetup is what a churn-router set-up leaves running.
type churnSetup struct {
	d      *daemon
	cl     *clusterserve.Cluster
	chain  *deltaChain
	g      *graph.Graph
	genMS  float64
	chainS float64
	// readyCPU is the replica's CPU time up to the first verified reply.
	readyCPU time.Duration
}

func (s *churnSetup) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	if s.d != nil {
		s.d.Stop()
	}
}

func churnSetupOnce(e *env, bin string, c *checker, updates int) (*churnSetup, error) {
	root := e.tr.open("setup", 0)
	defer e.tr.close(root)
	s := &churnSetup{}
	s.genMS = ms(e.tr.timed("graph.ConnectedGnp", root, func() {
		s.g = graph.ConnectedGnp(crN, crDeg/crN, rand.New(rand.NewSource(e.seed)))
	}))
	var bs *baseline.BaswanaSenResult
	var err error
	e.tr.timed("baseline.BaswanaSen", root, func() { bs, err = baseline.BaswanaSen(s.g, 2, buildSeed) })
	if err != nil {
		return nil, err
	}
	cs := e.tr.open("delta chain", root)
	t0 := time.Now()
	s.chain, err = produceChain(e.tr, cs, s.g, bs.Spanner, chainConfig{
		K: crK, Batches: updates, BatchSize: crBatchSize, StreamSeed: e.seed, Dir: e.dir})
	s.chainS = time.Since(t0).Seconds()
	e.tr.close(cs)
	if err != nil {
		return nil, fmt.Errorf("delta chain: %w", err)
	}
	for i := range s.chain.Graphs {
		c.addGen(int64(i+1), s.chain.Graphs[i], s.chain.Spanners[i], crK)
	}
	sp := e.tr.open("spannerd.start", root)
	s.d, err = startDaemon(e.ctx, bin, e.dir, false, "-cluster", "-artifact", s.chain.BasePath)
	e.tr.close(sp)
	if err != nil {
		return nil, err
	}
	s.cl = clusterserve.New(clusterserve.Config{
		Replicas: []string{s.d.URL()}, ProbeInterval: 50 * time.Millisecond, Seed: e.seed})
	ctx, cancel := context.WithTimeout(e.ctx, 30*time.Second)
	defer cancel()
	sp = e.tr.open("clusterserve.WaitReady", root)
	err = s.cl.WaitReady(ctx, 1)
	e.tr.close(sp)
	if err != nil {
		s.close()
		return nil, err
	}
	sp = e.tr.open("first_verified_reply", root)
	err = firstVerified(ctx, c, client.Query{Type: "dist", U: 0, V: 1}, s.cl.Query,
		func(r client.Reply) int64 { return r.Gen }, 30*time.Second)
	e.tr.close(sp)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("first reply: %w", err)
	}
	if s.readyCPU, err = procCPU(s.d.Pid()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func runChurnRouter(e *env) (*report, error) {
	rep := newReport("churn-router")
	bin, err := e.spannerd()
	if err != nil {
		return nil, err
	}
	updates := int(e.seconds * float64(time.Second) / float64(crUpdateEvery))
	if updates < 1 {
		updates = 1
	}
	c := newChecker()
	var setups, setupWall, gens, chains []float64
	var s *churnSetup
	for i := 0; i < crSetups; i++ {
		if s != nil {
			s.close()
			s = nil
			gcSettle()
		}
		t0, c0 := time.Now(), selfCPU()
		if s, err = churnSetupOnce(e, bin, c, updates); err != nil {
			return nil, err
		}
		// Set-up CPU: this process's, plus all of the replica's so far.
		setups = append(setups, (selfCPU() - c0 + s.readyCPU).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		gens = append(gens, s.genMS)
		chains = append(chains, s.chainS)
	}
	defer s.close()
	gcSettle()

	genOf := func(r client.Reply) int64 { return r.Gen }
	var attempts, routed int64
	var amu sync.Mutex
	send := func(ctx context.Context, q client.Query) (client.Reply, error) {
		r, qt, err := s.cl.QueryTraced(ctx, q)
		amu.Lock()
		attempts += int64(qt.Attempts)
		routed++
		amu.Unlock()
		return r, err
	}
	restore := issuerProcs()
	defer restore()
	warm := &readPass{qs: uniformQueries(e.seed^0x3a73, crN, int(crReadRate*warmSecs)), send: s.cl.Query, every: crEvery, workers: 1}
	wres := warm.run(e.ctx, crReadRate, time.Second)
	warm.check(c, wres, genOf)
	rep.Attempted += wres.Sent
	rep.Failed += wres.Failed
	gcSettle()

	// Reads and updates each get one issuer: nproc generator goroutines.
	var before, after scrape
	if e.trace {
		if before, err = scrapeMetricz(s.d.URL()); err != nil {
			return nil, err
		}
	}
	halves := 1
	if e.trace {
		halves = 2 // untraced half, then traced half
	}
	perHalf := updates / halves
	readSecs := e.seconds / float64(halves)
	var reads [2]*loopResult
	var ups [2]*loopResult
	var upMS [2][]int64
	var cost [2]churnCPU
	for h := 0; h < halves; h++ {
		traced := h == 1
		stream := uniformQueries(e.seed^int64(0xc0de+h), crN, int(crReadRate*readSecs))
		pass := &readPass{qs: stream, send: send, every: crEvery, workers: 1}
		if traced {
			pass.tr, pass.span = e.tr, "clusterserve.QueryTraced"
		}
		first := h * perHalf
		n := perHalf
		if h == halves-1 {
			n = updates - first
		}
		var upErr error
		commitMS := make([]int64, n)
		windows := make([]cpuWindow, n)
		up := &openLoop{
			Rate: float64(time.Second) / float64(crUpdateEvery), N: n, Workers: 1,
			Issue: func(_, i int) bool {
				j := first + i
				c0, cerr := procCPU(s.d.Pid())
				t0 := time.Now()
				res, err := s.cl.Update(e.ctx, s.chain.Paths[j])
				t1 := time.Now()
				c1, cerr2 := procCPU(s.d.Pid())
				commitMS[i] = int64(t1.Sub(t0))
				windows[i] = cpuWindow{t0, t1, c1 - c0}
				if err == nil {
					err = errors.Join(cerr, cerr2)
				}
				if traced {
					e.tr.record("clusterserve.Update", 0, t0, t1)
				}
				if err == nil && (res.Gen != int64(j+2) || res.Checksum != s.chain.Sums[j]) {
					err = fmt.Errorf("committed gen %d checksum %#x, want gen %d checksum %#x",
						res.Gen, uint64(res.Checksum), j+2, uint64(s.chain.Sums[j]))
				}
				if err != nil && upErr == nil {
					upErr = fmt.Errorf("update %d: %w", j, err)
				}
				return err == nil
			},
		}
		cpu0, err := procCPU(s.d.Pid())
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ups[h] = up.run()
		}()
		reads[h] = pass.run(e.ctx, crReadRate, time.Second)
		wg.Wait()
		cpu1, err := procCPU(s.d.Pid())
		if err != nil {
			return nil, err
		}
		cost[h] = splitCPU(reads[h], crReadRate, windows, cpu1-cpu0)
		pass.check(c, reads[h], genOf)
		upMS[h] = commitMS
		rep.Attempted += reads[h].Sent + ups[h].Sent
		rep.Failed += reads[h].Failed + ups[h].Failed
		if pass.firstErr != nil {
			rep.linef("first failed read: %v", pass.firstErr)
		}
		if upErr != nil {
			rep.linef("first failed update: %v", upErr)
		}
	}
	restore()
	rStats := statsOf(reads[0], int(crReadRate))
	uStats := statsOf(ups[0], 0)
	rss, err := s.d.PeakRSSMB()
	if err != nil {
		return nil, err
	}
	if !e.trace {
		rep.E2E["setup_s"] = medianFloat(setups)
		rep.E2E["op_cpu_us"] = cost[0].PerRead
		rep.E2E["gen_cpu_ms"] = cost[0].PerUpdate
		rep.E2E["peak_mem_mb"] = rss
		rep.E2E["artifact_mb"] = float64(s.chain.BaseBytes) / 1e6
		rep.named("read_p50_us", rStats.P50, "us")
		rep.named(fmt.Sprintf("read_p99_us (p%g, median of %d 1s windows)", rStats.TailQ*100, rStats.Windows), rStats.Tail, "us")
		rep.named("read_fail_ratio", float64(reads[0].Failed)/float64(max(reads[0].Sent, 1)), "failed/attempted")
		rep.named("update_p50_ms", uStats.P50/1e3, "ms")
		rep.named(fmt.Sprintf("update_p90_ms (p%g of %d)", uStats.TailQ*100, uStats.N), uStats.Tail/1e3, "ms")
		rep.named("setup (wall)", medianFloat(setupWall), "s")
		rep.named("update_fail_ratio", float64(ups[0].Failed)/float64(max(ups[0].Sent, 1)), "failed/attempted")
		rep.named("server_rss_mb", rss, "MB")
		rep.named("artifact_mb", float64(s.chain.BaseBytes)/1e6, "MB")
		rep.named("loadgen.lag_p99_us", rStats.LagP99, "us")
		rep.linef("%s", scheduleLine(rStats))
		rep.linef("delta chain: %d deltas produced in %.2fs (median of %d set-ups)", updates, medianFloat(chains), crSetups)
		rep.Violations, rep.FirstWrong = c.Violations, c.First
		return rep, nil
	}

	if after, err = scrapeMetricz(s.d.URL()); err != nil {
		return nil, err
	}
	dm := delta{before, after}
	L := rep.Layer
	tStats := statsOf(reads[1], int(crReadRate))
	L["obs.trace_overhead_pct"] = 100 * (tStats.P50 - rStats.P50) / rStats.P50
	L["loadgen.lag_p99_us"] = tStats.LagP99
	q50, _ := rttP50P99(reads[1])
	L["clusterserve.query_us_p50"] = q50
	L["clusterserve.attempts_per_query"] = float64(attempts) / float64(max(routed, 1))
	L["clusterserve.update_ms"] = float64(quantile(upMS[1], 0.5)) / 1e6
	serveLayer(L, dm)

	// The replica's own JSON round trip at the same rate, bypassing the
	// router: what the router hop adds is the difference.
	direct := client.New(client.Config{BaseURL: s.d.URL(), MaxRetries: -1})
	dpass := &readPass{qs: uniformQueries(e.seed^0xd1, crN, int(crReadRate)), send: direct.Query, every: crEvery, workers: 1}
	dres := dpass.run(e.ctx, crReadRate, time.Second)
	dpass.check(c, dres, genOf)
	rep.Attempted += dres.Sent
	rep.Failed += dres.Failed
	j50, _ := rttP50P99(dres)
	L["spannerd.json_latency_p50_us"] = j50
	L["clusterserve.hop_us"] = q50 - j50

	ch := s.chain
	L["graph.gen_ms"] = medianFloat(gens)
	L["dynamic.apply_batch_ms"] = medianFloat(ch.ApplyMS)
	for _, r := range ch.Reports {
		L["dynamic.admitted"] += float64(r.Admitted)
		L["dynamic.filtered"] += float64(r.Filtered)
		L["dynamic.repaired"] += float64(r.RepairedEdges)
		if r.Rebuilt {
			L["dynamic.rebuilds"]++
		}
	}
	L["artifact.build_ms"] = medianFloat(ch.BuildMS)
	L["artifact.diff_ms"] = medianFloat(ch.DiffMS)
	total := 0
	for _, b := range ch.DeltaBytes {
		total += b
	}
	L["artifact.delta_bytes"] = float64(total) / float64(len(ch.DeltaBytes))
	rp := e.tr.open("replay", 0)
	applies, engineApplies, err := replayChain(e.tr, rp, ch)
	if err != nil {
		return nil, fmt.Errorf("delta chain replay: %w", err)
	}
	L["artifact.delta_apply_ms"] = medianFloat(applies)
	// Replicas apply deltas in their prepare handler, outside
	// serve.Engine.ApplyDelta, so the engine's serve.update.latency_us
	// stays empty under clusterserve: the engine path is timed in-process.
	L["serve.update_apply_ms"] = medianFloat(engineApplies)
	g := ch.Graphs[len(ch.Graphs)-1]
	L["oracle.new_ms"] = ms(e.tr.timed("oracle.New", rp, func() { _, err = oracle.New(g, crK, buildSeed) }))
	if err != nil {
		return nil, err
	}
	L["routing.new_ms"] = ms(e.tr.timed("routing.New", rp, func() { _, err = routing.New(g, buildSeed) }))
	if err != nil {
		return nil, err
	}
	e.tr.close(rp)
	L["verify.sampled"] = float64(c.Sampled)
	L["verify.violations"] = float64(c.Violations)
	rep.linef("router read p50 %.1fµs = replica JSON round trip %.1fµs + router hop %.1fµs", q50, j50, q50-j50)
	rep.Violations, rep.FirstWrong = c.Violations, c.First
	return rep, nil
}

// cpuWindow is one update's span and the replica CPU time it took.
type cpuWindow struct {
	from, to time.Time
	cpu      time.Duration
}

// churnCPU is the replica's CPU time split between reads and updates.
type churnCPU struct {
	PerRead   float64 // µs per read
	PerUpdate float64 // ms per committed update
}

// splitCPU splits total, the replica's CPU time over a churn phase, into a
// per-read and a per-update cost. Reads sent outside every update window
// paid for everything spent outside those windows; inside a window, the
// reads sent there are charged at that same rate and the rest is the
// update's (prepare, apply, commit, swap).
func splitCPU(reads *loopResult, rate float64, windows []cpuWindow, total time.Duration) churnCPU {
	var inside time.Duration
	for _, w := range windows {
		inside += w.cpu
	}
	readsIn := 0
	for i, lag := range reads.Lag {
		if lag < 0 {
			continue
		}
		sent := reads.Start.Add(time.Duration(float64(i)*float64(time.Second)/rate) + time.Duration(lag))
		for _, w := range windows {
			if !sent.Before(w.from) && sent.Before(w.to) {
				readsIn++
				break
			}
		}
	}
	readsOut := max(reads.Sent-readsIn, 1)
	perRead := float64((total - inside).Nanoseconds()) / 1e3 / float64(readsOut)
	perUpdate := (float64(inside.Nanoseconds())/1e3 - perRead*float64(readsIn)) / 1e3 / float64(max(len(windows), 1))
	return churnCPU{PerRead: perRead, PerUpdate: perUpdate}
}
