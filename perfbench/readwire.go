package main

// Workload read-wire: read-only point queries (dist/path/route 8/1/1) over
// the binary wire transport to one spannerd, Zipf-skewed pairs so the hot
// set lives in the engine's per-shard LRU, open-loop at a reference rate
// followed by a short ladder of higher rates. It loads client → wire →
// serve queue/shard/LRU → oracle/routing and never touches deltas,
// dynamic, clusterserve or HTTP.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/baseline"
	"spanner/internal/graph"
	"spanner/internal/oracle"
	"spanner/internal/routing"
	"spanner/internal/serve"
	"spanner/internal/wire"
)

const (
	rwN      = 10000 // vertices; gnp at average degree rwDeg
	rwDeg    = 8.0
	rwK      = 2 // oracle K of the served artifact (stretch 2K−1 = 3)
	rwSetups = 3 // set-ups per run; setup_s is their median
	// rwExtraStarts are the spannerd cold starts after set-up.
	rwExtraStarts = 4
	// rwRefRate is the reference arrival rate (queries/s) at which read
	// latency is measured; the ladder multiplies it.
	rwRefRate = 4000.0
	// rwCostRate is the rate of the cost phase, which measures spannerd's
	// CPU per query, from one issuer. Requests 3 ms apart each find the
	// server idle, so each pays the full cost of serving one, wake-up
	// included, however a busy host bunches arrivals: at 4000 q/s a
	// competing CPU hog cut the figure by a quarter, and a slower server
	// would have looked cheaper.
	rwCostRate = 300.0
	// rwCostShare and rwRefShare are the shares of the measured seconds
	// spent in the cost phase and at the reference rate; the ladder gets
	// the rest.
	rwCostShare = 0.4
	rwRefShare  = 0.4
	rwZipfS     = 1.1
	// rwHotShare of the queries go to Zipf-popular pairs, whose head
	// fits the per-shard LRU; the rest are uniform, so most dist queries
	// still reach Oracle.Query and its cost shows in the median.
	rwHotShare = 0.35
	// rwLimit is the p99 latency limit a ladder rate must meet.
	rwLimit = 2 * time.Millisecond
	// rwEvery keeps one reply in rwEvery for the answer checker.
	rwEvery = 32
)

// warmSecs is the untimed warm-up before a serving workload's timed phase.
const warmSecs = 1.0

var rwLadder = []float64{1.5, 2, 2.5, 3}

// wireSetup is what a read-wire set-up leaves running.
type wireSetup struct {
	d        *daemon
	wc       *client.WireClient
	g        *graph.Graph
	spanner  *graph.EdgeSet
	artPath  string
	artBytes int64
	genMS    float64 // graph generation
	buildMS  float64 // artifact.Build
	cold     time.Duration
	coldCPU  time.Duration // spannerd's CPU time up to the first verified reply
}

func (s *wireSetup) close() {
	if s.wc != nil {
		s.wc.Close()
		s.wc = nil
	}
	if s.d != nil {
		s.d.Stop()
		s.d = nil
	}
}

// readWireSetup builds the graph, spanner and artifact, starts spannerd on
// it and waits for the first verified wire reply.
func readWireSetup(e *env, bin string, c *checker) (*wireSetup, error) {
	root := e.tr.open("setup", 0)
	defer e.tr.close(root)
	s := &wireSetup{artPath: filepath.Join(e.dir, "read-wire.spanart")}
	s.genMS = ms(e.tr.timed("graph.ConnectedGnp", root, func() {
		s.g = graph.ConnectedGnp(rwN, rwDeg/rwN, rand.New(rand.NewSource(e.seed)))
	}))
	var bs *baseline.BaswanaSenResult
	var err error
	e.tr.timed("baseline.BaswanaSen", root, func() { bs, err = baseline.BaswanaSen(s.g, 2, buildSeed) })
	if err != nil {
		return nil, err
	}
	s.spanner = bs.Spanner
	var art *artifact.Artifact
	s.buildMS = ms(e.tr.timed("artifact.Build", root, func() {
		art, err = artifact.Build(s.g, bs.Spanner, "baswana-sen", rwK, buildSeed)
	}))
	if err != nil {
		return nil, err
	}
	e.tr.timed("artifact.Save", root, func() { err = artifact.Save(s.artPath, art) })
	if err != nil {
		return nil, err
	}
	art = nil
	st, err := os.Stat(s.artPath)
	if err != nil {
		return nil, err
	}
	s.artBytes = st.Size()
	c.addGen(1, s.g, s.spanner, rwK) // a fresh engine serves snapshot 1
	if err := s.start(e, bin, c, root); err != nil {
		return nil, err
	}
	return s, nil
}

// start starts spannerd on the saved artifact and waits for the first
// verified wire reply, recording the cold start's wall and CPU time.
func (s *wireSetup) start(e *env, bin string, c *checker, parent int64) error {
	t0 := time.Now()
	sp := e.tr.open("spannerd.start", parent)
	var err error
	s.d, err = startDaemon(e.ctx, bin, e.dir, true, "-artifact", s.artPath)
	e.tr.close(sp)
	if err != nil {
		return err
	}
	s.wc, err = client.NewWire(client.WireConfig{Addr: s.d.WireAddr, Conns: issuers(), MaxRetries: -1, Seed: e.seed})
	if err != nil {
		s.close()
		return err
	}
	fr := e.tr.open("first_verified_reply", parent)
	err = firstVerified(e.ctx, c, client.Query{Type: "dist", U: 0, V: 1}, s.wc.Query, snapOf, 30*time.Second)
	e.tr.close(fr)
	if err != nil {
		s.close()
		return fmt.Errorf("first reply: %w", err)
	}
	s.cold = time.Since(t0)
	if s.coldCPU, err = procCPU(s.d.Pid()); err != nil {
		s.close()
		return err
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// snapOf is the generation a wire reply claims.
func snapOf(r client.Reply) int64 { return r.Snapshot }

// send issues q through the wire client, dist queries by the zero-alloc
// Dist call.
func (s *wireSetup) send(ctx context.Context, q client.Query) (client.Reply, error) {
	if q.Type == "dist" {
		return s.wc.Dist(ctx, q.U, q.V)
	}
	return s.wc.Query(ctx, q)
}

func runReadWire(e *env) (*report, error) {
	rep := newReport("read-wire")
	bin, err := e.spannerd()
	if err != nil {
		return nil, err
	}
	c := newChecker()
	var setups, setupWall, colds, coldCPUs, gens, builds []float64
	var s *wireSetup
	for i := 0; i < rwSetups; i++ {
		if s != nil {
			s.close()
			s = nil
			gcSettle()
		}
		t0, c0 := time.Now(), selfCPU()
		if s, err = readWireSetup(e, bin, c); err != nil {
			return nil, err
		}
		// Set-up CPU: this process's, plus all of spannerd's so far.
		setups = append(setups, (selfCPU() - c0 + s.coldCPU).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		colds = append(colds, ms(s.cold))
		coldCPUs = append(coldCPUs, ms(s.coldCPU))
		gens = append(gens, s.genMS)
		builds = append(builds, s.buildMS)
	}
	defer s.close()
	if !e.trace {
		// More cold starts on the served artifact, outside set-up: one
		// start's CPU varies by about a tenth, so gen_cpu_ms is the median
		// over every start.
		for i := 0; i < rwExtraStarts; i++ {
			s.close()
			gcSettle()
			if err := s.start(e, bin, c, 0); err != nil {
				return nil, err
			}
			colds = append(colds, ms(s.cold))
			coldCPUs = append(coldCPUs, ms(s.coldCPU))
		}
	}
	gcSettle()

	send := s.send
	refSecs := e.seconds * rwRefShare
	if e.trace {
		refSecs = e.seconds / 2 // untraced half, then traced half
	}
	refN := int(rwRefRate * refSecs)
	stream := skewedQueries(e.seed^0x5eed, e.seed, rwN, refN, rwZipfS, rwHotShare)

	// Warm-up: a second of the same traffic, untimed, fills the LRU and
	// lets spannerd's post-load collection and scavenging finish.
	restore := issuerProcs()
	defer restore()
	warm := &readPass{qs: skewedQueries(e.seed^0x3a73, e.seed, rwN, int(rwRefRate*warmSecs), rwZipfS, rwHotShare), send: send, every: rwEvery}
	wres := warm.run(e.ctx, rwRefRate, time.Second)
	warm.check(c, wres, snapOf)
	rep.Attempted += wres.Sent
	rep.Failed += wres.Failed
	gcSettle()

	// Cost phase (untraced runs only).
	var srvCPU float64
	if !e.trace {
		costSecs := e.seconds * rwCostShare
		cp := &readPass{qs: skewedQueries(e.seed^0xc057, e.seed, rwN, int(rwCostRate*costSecs), rwZipfS, rwHotShare), send: send, every: rwEvery, workers: 1}
		cpu0, err := procCPU(s.d.Pid())
		if err != nil {
			return nil, err
		}
		cres := cp.run(e.ctx, rwCostRate, time.Second)
		cpu1, err := procCPU(s.d.Pid())
		if err != nil {
			return nil, err
		}
		cp.check(c, cres, snapOf)
		rep.Attempted += cres.Sent
		rep.Failed += cres.Failed
		srvCPU = float64((cpu1 - cpu0).Nanoseconds()) / 1e3 / float64(max(cres.Sent, 1))
		gcSettle()
	}

	var before, after scrape
	if e.trace {
		if before, err = scrapeMetricz(s.d.URL()); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pass := &readPass{qs: stream, send: send, every: rwEvery}
	ref := pass.run(e.ctx, rwRefRate, time.Second)
	runtime.ReadMemStats(&ms1)
	pass.check(c, ref, snapOf)
	rep.Attempted += ref.Sent
	rep.Failed += ref.Failed
	if pass.firstErr != nil {
		rep.linef("first failed request: %v", pass.firstErr)
	}
	refStats := statsOf(ref, int(rwRefRate))
	if !e.trace {
		defer restore() // after the ladder
	}

	if !e.trace {
		maxQPS := 0.0
		if refStats.Tail <= float64(rwLimit.Microseconds()) && ref.Failed*1000 <= ref.Sent {
			maxQPS = rwRefRate
		}
		stepSecs := e.seconds * (1 - rwCostShare - rwRefShare) / float64(len(rwLadder))
		for j, mult := range rwLadder {
			if maxQPS < rwRefRate {
				break
			}
			rate := rwRefRate * mult
			qs := skewedQueries(e.seed^int64(0x1add+j), e.seed, rwN, int(rate*stepSecs), rwZipfS, rwHotShare)
			step := &readPass{qs: qs, send: send, every: rwEvery}
			res := step.run(e.ctx, rate, 200*time.Millisecond)
			step.check(c, res, snapOf)
			rep.Attempted += res.Sent
			rep.Failed += res.Failed
			st := statsOf(res, 0)
			ok := !res.Aborted && st.Tail <= float64(rwLimit.Microseconds()) &&
				res.Failed*1000 <= res.Sent && !growingBacklog(res)
			rep.linef("ladder %7.0f q/s: p50 %8.1fµs p%g %9.1fµs lag p99 %8.1fµs failed %d/%d aborted %v -> %v",
				rate, st.P50, st.TailQ*100, st.Tail, st.LagP99, res.Failed, res.Sent, res.Aborted, ok)
			if !ok {
				break
			}
			maxQPS = rate
		}
		rss, err := s.d.PeakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.E2E["setup_s"] = medianFloat(setups)
		rep.E2E["op_cpu_us"] = srvCPU
		rep.E2E["gen_cpu_ms"] = medianFloat(coldCPUs)
		rep.E2E["peak_mem_mb"] = rss
		rep.E2E["artifact_mb"] = float64(s.artBytes) / 1e6
		rep.named("read_p50_us", refStats.P50, "us")
		rep.named(fmt.Sprintf("read_p99_us (p%g, median of %d 1s windows)", refStats.TailQ*100, refStats.Windows), refStats.Tail, "us")
		rep.named("read_max_qps", maxQPS, "queries/s")
		rep.named("setup (wall)", medianFloat(setupWall), "s")
		rep.named("cold start: spannerd exec -> first verified reply (wall)", medianFloat(colds), "ms")
		rep.named("read_fail_ratio", float64(ref.Failed)/float64(max(ref.Sent, 1)), "failed/attempted")
		rep.named("server_rss_mb", rss, "MB")
		rep.named("artifact_mb", float64(s.artBytes)/1e6, "MB")
		rep.named("loadgen.lag_p99_us", refStats.LagP99, "us")
		rep.linef("%s", scheduleLine(refStats))
		rep.Violations, rep.FirstWrong = c.Violations, c.First
		return rep, nil
	}

	// Traced half: a fresh stream from the same distribution (repeating the
	// first would hit the cache) with a span around every client call; the
	// difference to the untraced half is the tracing overhead.
	tstream := skewedQueries(e.seed^0x7ace, e.seed, rwN, refN, rwZipfS, rwHotShare)
	tpass := &readPass{qs: tstream, send: send, every: rwEvery, tr: e.tr, span: "client.wire.Query"}
	traced := tpass.run(e.ctx, rwRefRate, time.Second)
	tpass.check(c, traced, snapOf)
	rep.Attempted += traced.Sent
	rep.Failed += traced.Failed
	if after, err = scrapeMetricz(s.d.URL()); err != nil {
		return nil, err
	}
	restore()
	tStats := statsOf(traced, int(rwRefRate))
	dm := delta{before, after}
	L := rep.Layer
	L["obs.trace_overhead_pct"] = 100 * (tStats.P50 - refStats.P50) / refStats.P50
	L["loadgen.lag_p99_us"] = tStats.LagP99
	rtt50, rtt99 := rttP50P99(traced)
	L["client.wire.rtt_p50_us"], L["client.wire.rtt_p99_us"] = rtt50, rtt99
	L["client.allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(ref.Sent, 1))
	queries := float64(ref.Sent + traced.Sent)
	L["wire.server_latency_p50_us"] = float64(dm.hist("transport.latency_us{transport=wire}").Quantile(0.5))
	L["wire.frames_per_query"] = dm.counter("transport.requests{transport=wire}") / queries
	L["wire.batch_size_mean"] = dm.hist("wire.batch_size").Mean()
	L["wire.bad_frames"] = dm.counter("wire.bad_frames")
	serveLayer(L, dm)
	L["verify.sampled"] = float64(c.Sampled)
	L["verify.violations"] = float64(c.Violations)
	L["graph.gen_ms"] = medianFloat(gens)
	L["artifact.build_ms"] = medianFloat(builds)

	if err := replayReadWire(e, rep, s, tstream); err != nil {
		return nil, err
	}
	codec := L["wire.codec_ns"] / 1e3
	clientCodec := L["budget.client_codec_us"]
	phases := 0.0
	for _, p := range []string{"admission", "queue", "shard", "cache", "oracle"} {
		phases += L["serve.phase_"+p+"_ns"]
	}
	L["budget.client_rtt_us"] = rtt50
	L["budget.server_transport_us"] = L["wire.server_latency_p50_us"]
	L["budget.engine_us"] = phases / 1e3
	L["budget.oracle_us"] = L["oracle.query_ns"] / 1e3
	L["budget.unattributed_us"] = rtt50 - L["wire.server_latency_p50_us"] - clientCodec
	rep.linef("per-query budget (p50s, µs):")
	rep.linef("  client RTT (send → reply)                 %9.2f", rtt50)
	rep.linef("    server transport latency (wire, µs res.) %9.2f", L["wire.server_latency_p50_us"])
	rep.linef("      engine phases (sum of p50s)            %9.2f  admission %.2f queue %.2f shard %.2f cache %.2f oracle %.2f",
		phases/1e3, L["serve.phase_admission_ns"]/1e3, L["serve.phase_queue_ns"]/1e3, L["serve.phase_shard_ns"]/1e3,
		L["serve.phase_cache_ns"]/1e3, L["serve.phase_oracle_ns"]/1e3)
	rep.linef("        oracle compute (Oracle.Query replay) %9.2f", L["budget.oracle_us"])
	rep.linef("    client frame codec (replay)              %9.2f  (full codec both sides %.2f)", clientCodec, codec)
	rep.linef("  unattributed (RTT − transport − codec)    %9.2f", L["budget.unattributed_us"])
	rep.Violations, rep.FirstWrong = c.Violations, c.First
	return rep, nil
}

// growingBacklog reports whether the generator fell further behind over
// the run: the final tenth of requests was sent later than rwLimit.
func growingBacklog(res *loopResult) bool {
	tail := res.Lag[len(res.Lag)*9/10:]
	return quantile(tail, 0.5) > int64(rwLimit)
}

// serveLayer fills the serve.* metrics from a /metricz delta.
func serveLayer(L map[string]float64, dm delta) {
	for _, p := range []string{"admission", "queue", "shard", "cache", "oracle"} {
		L["serve.phase_"+p+"_ns"] = float64(dm.hist("serve.phase_ns{phase=" + p + "}").Quantile(0.5))
	}
	for _, t := range []string{"dist", "path", "route"} {
		hits := dm.counter("serve.cache.hits{type=" + t + "}")
		misses := dm.counter("serve.cache.misses{type=" + t + "}")
		if hits+misses > 0 {
			L["serve.cache_hit_ratio_"+t] = hits / (hits + misses)
		}
	}
	L["serve.rejects"] = dm.counterSum("serve.rejects")
	if q := dm.counterSum("serve.queries"); q > 0 {
		L["serve.degraded_ratio"] = dm.counter("serve.degraded") / q
	}
}

// replayReadWire replays the run's request stream through each lower
// layer's entry point in-process, on the artifact spannerd served.
func replayReadWire(e *env, rep *report, s *wireSetup, stream []client.Query) error {
	L := rep.Layer
	root := e.tr.open("replay", 0)
	defer e.tr.close(root)
	blob, err := os.ReadFile(s.artPath)
	if err != nil {
		return err
	}
	var art *artifact.Artifact
	dec := e.tr.timed("artifact.Unmarshal", root, func() { art, err = artifact.Unmarshal(blob) })
	if err != nil {
		return err
	}
	L["artifact.decode_mb_s"] = float64(len(blob)) / 1e6 / dec.Seconds()
	enc := e.tr.timed("artifact.Marshal", root, func() { blob = art.Marshal() })
	L["artifact.encode_mb_s"] = float64(len(blob)) / 1e6 / enc.Seconds()
	blob = nil
	L["artifact.checksum_ms"] = ms(e.tr.timed("artifact.Checksum", root, func() { art.Checksum() }))
	L["oracle.new_ms"] = ms(e.tr.timed("oracle.New", root, func() { _, err = oracle.New(art.Graph, rwK, buildSeed) }))
	if err != nil {
		return err
	}
	L["routing.new_ms"] = ms(e.tr.timed("routing.New", root, func() { _, err = routing.New(art.Graph, buildSeed) }))
	if err != nil {
		return err
	}

	// The engine, the oracle, the routing scheme and the frame codec, each
	// on the same queries in the same order.
	eng, err := serve.New(art, serve.Config{})
	if err != nil {
		return err
	}
	defer eng.Close()
	n := min(len(stream), 20000)
	engNS := make([]int64, 0, n)
	var oracleNS, routeNS, codecNS, clientCodecNS []int64
	var buf []byte
	var wq wire.Query
	var wr wire.Reply
	rd := bytes.NewReader(nil)
	fr := wire.NewReader(rd, 0)
	sp := e.tr.open("serve.Engine.Query replay", root)
	for _, q := range stream[:n] {
		typ, _ := serve.ParseQueryType(q.Type)
		t0 := time.Now()
		r := eng.Query(serve.Request{Type: typ, U: q.U, V: q.V})
		engNS = append(engNS, int64(time.Since(t0)))
		// Frame codec: client encodes the query, server decodes it and
		// encodes the reply, client decodes the reply.
		wq = wire.Query{Type: uint8(typ), U: q.U, V: q.V}
		t1 := time.Now()
		buf = wire.AppendQueryFrame(buf[:0], 1, wq)
		t2 := time.Now()
		rd.Reset(buf)
		_, p, err := fr.Next()
		if err == nil {
			err = wire.DecodeQuery(p, &wq)
		}
		wr = wire.Reply{Type: uint8(typ), U: r.U, V: r.V, Dist: r.Dist, Path: r.Path, Snapshot: r.SnapshotID}
		buf = wire.AppendReplyFrame(buf[:0], 1, &wr)
		t3 := time.Now()
		rd.Reset(buf)
		if _, p, err2 := fr.Next(); err == nil {
			err = err2
			if err == nil {
				err = wire.DecodeReply(p, &wr)
			}
		}
		t4 := time.Now()
		if err != nil {
			return fmt.Errorf("wire codec replay: %w", err)
		}
		codecNS = append(codecNS, int64(t4.Sub(t1)))
		clientCodecNS = append(clientCodecNS, int64(t2.Sub(t1)+t4.Sub(t3)))
	}
	e.tr.close(sp)
	sp = e.tr.open("oracle.Query/routing.Route replay", root)
	for _, q := range stream[:n] {
		switch q.Type {
		case "dist":
			t0 := time.Now()
			art.Oracle.Query(q.U, q.V)
			oracleNS = append(oracleNS, int64(time.Since(t0)))
		case "route":
			t0 := time.Now()
			_, _ = art.Routing.Route(q.U, q.V) // no-route answers are timed too
			routeNS = append(routeNS, int64(time.Since(t0)))
		}
	}
	e.tr.close(sp)
	L["serve.engine_query_us_p50"] = float64(quantile(engNS, 0.5)) / 1e3
	L["oracle.query_ns"] = float64(quantile(oracleNS, 0.5))
	L["routing.route_us"] = float64(quantile(routeNS, 0.5)) / 1e3
	L["wire.codec_ns"] = float64(quantile(codecNS, 0.5))
	L["budget.client_codec_us"] = float64(quantile(clientCodecNS, 0.5)) / 1e3
	return nil
}
