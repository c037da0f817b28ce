package main

import (
	"testing"
	"time"
)

// A stalled issuer must not hide the stall: every request that fell due
// while the issuer was stuck is timed from its due time, so each carries
// at least the rest of the stall as latency.
func TestOpenLoopStallShowsOnEveryDueRequest(t *testing.T) {
	const (
		rate    = 2000.0
		n       = 400
		stallAt = 100
		stall   = 40 * time.Millisecond
	)
	var stallEnd time.Time
	loop := &openLoop{
		Rate: rate, N: n, Workers: 1,
		Issue: func(_, _ int) bool { return true },
		beforeSend: func(i int) {
			if i == stallAt {
				time.Sleep(stall)
				stallEnd = time.Now()
			}
		},
	}
	res := loop.run()
	if res.Sent != n || res.Failed != 0 {
		t.Fatalf("sent %d failed %d, want %d and 0", res.Sent, res.Failed, n)
	}
	affected := 0
	for i := stallAt; i < n; i++ {
		due := loop.due(res.Start, i)
		if !due.Before(stallEnd) {
			break
		}
		affected++
		if want := stallEnd.Sub(due); time.Duration(res.Lat[i]) < want {
			t.Errorf("request %d due %v before the stall ended: latency %v, want ≥ %v",
				i, stallEnd.Sub(due), time.Duration(res.Lat[i]), want)
		}
	}
	if min := int(stall.Seconds() * rate); affected < min {
		t.Fatalf("only %d requests fell due during the stall, want ≥ %d", affected, min)
	}
	if lag := time.Duration(quantile(res.sentLag(), 0.99)); lag < stall/2 {
		t.Errorf("lag p99 %v does not show the %v stall", lag, stall)
	}
	// Before the stall the generator keeps its schedule.
	if lat := time.Duration(quantile(res.Lat[:stallAt], 0.5)); lat > 5*time.Millisecond {
		t.Errorf("median latency before the stall is %v", lat)
	}
}

// A failed request counts as missing every latency limit.
func TestOpenLoopFailuresMissEveryLimit(t *testing.T) {
	loop := &openLoop{Rate: 5000, N: 100, Workers: 2, Issue: func(_, i int) bool { return i%2 == 0 }}
	res := loop.run()
	if res.Failed != 50 {
		t.Fatalf("failed %d, want 50", res.Failed)
	}
	for i := 1; i < 100; i += 2 {
		if res.Lat[i] != failedNS {
			t.Fatalf("failed request %d has latency %d", i, res.Lat[i])
		}
	}
	if q := quantile(res.sentLat(), 0.6); q != failedNS {
		t.Fatalf("p60 with half the requests failed is %d, want the failure sentinel", q)
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0.5}, {25, 0.5}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
