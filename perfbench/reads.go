package main

// Read streams shared by the serving workloads: a seeded request stream,
// an open-loop pass over it through some client, and the sampled answer
// check that follows each pass.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"spanner/client"
)

// mixTypes draws query types dist/path/route with weights 8/1/1.
func mixType(rng *rand.Rand) string {
	switch x := rng.Intn(10); {
	case x < 8:
		return "dist"
	case x < 9:
		return "path"
	default:
		return "route"
	}
}

// skewedQueries draws count queries of which a hotShare draw their pair
// from a Zipf(s) popularity over ranked pairs — rank r maps to a fixed
// pseudo-random (u,v), so the hot head fits the engine's LRU — and the
// rest draw a uniform pair, a cold tail no cache holds. The pair universe
// depends on universe, not on the stream, so warm-up, reference phase and
// ladder share their hot pairs.
func skewedQueries(seed, universe int64, n, count int, s, hotShare float64) []client.Query {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, 1<<24)
	qs := make([]client.Query, count)
	for i := range qs {
		typ := mixType(rng)
		if rng.Float64() < hotShare {
			x := splitmix(z.Uint64() ^ uint64(universe))
			qs[i] = client.Query{Type: typ, U: int32(x % uint64(n)), V: int32((x >> 32) % uint64(n))}
		} else {
			qs[i] = client.Query{Type: typ, U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		}
	}
	return qs
}

// uniformQueries draws count queries over uniform random pairs.
func uniformQueries(seed int64, n, count int) []client.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]client.Query, count)
	for i := range qs {
		qs[i] = client.Query{Type: mixType(rng), U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	return qs
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// issuers is the generator's goroutine (and connection) count: one per
// core, so the load generator never outnumbers the machine.
func issuers() int { return runtime.NumCPU() }

// readPass is one open-loop pass of a query stream through send.
type readPass struct {
	qs    []client.Query
	send  func(ctx context.Context, q client.Query) (client.Reply, error)
	every int // keep every every-th reply for the checker
	// workers is the issuer count (0 = issuers()).
	workers int
	tr      *tracer
	span    string // span name for each call when traced

	mu       sync.Mutex
	firstErr error
	kept     map[int]client.Reply
}

// run issues the stream at rate from issuers() goroutines.
func (p *readPass) run(ctx context.Context, rate float64, abortLag time.Duration) *loopResult {
	if p.workers == 0 {
		p.workers = issuers()
	}
	p.kept = make(map[int]client.Reply, len(p.qs)/p.every+1)
	replies := make([]client.Reply, len(p.qs)/p.every+1)
	keep := make([]bool, len(replies))
	loop := &openLoop{
		Rate: rate, N: len(p.qs), Workers: p.workers, AbortLag: abortLag,
		Issue: func(_, i int) bool {
			t0 := time.Now()
			rep, err := p.send(ctx, p.qs[i])
			if p.tr != nil {
				p.tr.record(p.span, 0, t0, time.Now())
			}
			if err != nil {
				p.mu.Lock()
				if p.firstErr == nil {
					p.firstErr = fmt.Errorf("%s(%d,%d): %w", p.qs[i].Type, p.qs[i].U, p.qs[i].V, err)
				}
				p.mu.Unlock()
				return false
			}
			if i%p.every == 0 {
				replies[i/p.every], keep[i/p.every] = rep, true
			}
			return true
		},
	}
	res := loop.run()
	for j, ok := range keep {
		if ok {
			p.kept[j*p.every] = replies[j]
		}
	}
	return res
}

// check runs the answer checker over the kept replies; genOf names the
// generation a reply claims. Wrong answers count as failures that miss
// every latency limit.
func (p *readPass) check(c *checker, res *loopResult, genOf func(client.Reply) int64) {
	for i, r := range p.kept {
		if c.check(genOf(r), p.qs[i], r) != nil && res.Lat[i] != failedNS {
			res.Lat[i] = failedNS
			res.Failed++
		}
	}
}

// firstVerified retries query until it answers and the answer checks out,
// or the timeout passes: the end of a setup.
func firstVerified(ctx context.Context, c *checker, q client.Query, send func(context.Context, client.Query) (client.Reply, error), genOf func(client.Reply) int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		rep, err := send(ctx, q)
		if err == nil {
			return c.verify(genOf(rep), q, rep)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no reply within %v: %w", timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// latStats summarizes a pass: median and tail of due→reply latency (µs),
// the tail's quantile, and the generator's p99 lag (µs).
type latStats struct {
	P50, Tail, TailQ, LagP50, LagP99 float64
	N, Windows                       int
}

// statsOf summarizes a pass in windows of window consecutive requests (one
// second of arrivals; 0 = one window): each window's median and tail,
// then the median across windows. A pause of a few milliseconds — a
// neighbour on the host, a collection — then moves the window it falls in,
// not the run's figure. Each window's tail keeps ≥10 samples beyond it.
func statsOf(res *loopResult, window int) latStats {
	if window <= 0 || window > len(res.Lat) {
		window = len(res.Lat)
	}
	lag := res.sentLag()
	st := latStats{N: res.Sent, LagP50: float64(quantile(lag, 0.5)) / 1e3, LagP99: float64(quantile(lag, 0.99)) / 1e3}
	var p50s, tails []float64
	for lo := 0; lo+window <= len(res.Lat); lo += window {
		w := sentOnly(res.Lat[lo : lo+window])
		if len(w) == 0 {
			continue
		}
		st.TailQ = tailQuantile(len(w))
		p50s = append(p50s, float64(quantile(w, 0.5))/1e3)
		tails = append(tails, float64(quantile(w, st.TailQ))/1e3)
	}
	st.P50, st.Tail, st.Windows = medianFloat(p50s), medianFloat(tails), len(p50s)
	return st
}

// maxLagP50 is the generator's own schedule limit: a pass whose median
// request went out later than this did not measure the arrival rate it
// claims, and the table flags it invalid.
const maxLagP50 = time.Millisecond

// scheduleLine reports whether the generator kept its schedule.
func scheduleLine(st latStats) string {
	verdict := "kept its schedule"
	if st.LagP50 > float64(maxLagP50.Microseconds()) {
		verdict = "fell behind: INVALID run, the arrival rate was not delivered"
	}
	return fmt.Sprintf("generator lag p50 %.1fµs p99 %.1fµs: %s", st.LagP50, st.LagP99, verdict)
}

// rttP50P99 returns the send→reply round trip (µs) of successful requests.
func rttP50P99(res *loopResult) (float64, float64) {
	rtt := make([]int64, 0, res.Sent)
	for i, l := range res.Lat {
		if l >= 0 && l != failedNS {
			rtt = append(rtt, l-res.Lag[i])
		}
	}
	return float64(quantile(rtt, 0.5)) / 1e3, float64(quantile(rtt, 0.99)) / 1e3
}
