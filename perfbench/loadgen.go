package main

// The open-loop generator. Request i is due at start + i/rate whatever
// happened to earlier requests, and its latency is measured from that due
// time, so a stall anywhere — in the system or in the generator — shows up
// as latency on every request that was due while it lasted. How late the
// generator actually sent (lag) is recorded separately.
//
// Go's runtime timers wake about a millisecond late on Linux, which would
// swamp microsecond replies, so an issuer drops its thread's timer slack
// to 1ns, sleeps with nanosleep until just before the due time and spins
// the last few microseconds.

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// spinMargin is how long before a due time an issuer stops sleeping and
// starts spinning; it covers nanosleep's wake-up jitter at 1ns slack.
const spinMargin = 40 * time.Microsecond

// failedNS is the latency recorded for a failed, refused or wrong reply:
// it misses every latency limit.
const failedNS = math.MaxInt64

// openLoop issues N requests at Rate per second from Workers goroutines.
type openLoop struct {
	Rate    float64
	N       int
	Workers int
	// Issue sends request i from issuer w and reports whether the reply
	// was a success.
	Issue func(w, i int) bool
	// AbortLag stops the loop once an issuer sends this late (a backlog
	// that can only grow); 0 never aborts.
	AbortLag time.Duration
	// beforeSend, when set, runs after request i became due and before it
	// is sent (tests inject issuer stalls here).
	beforeSend func(i int)
}

// loopResult is one open-loop run. Lat and Lag are indexed by request;
// requests never sent (after an abort) have Lat and Lag of -1.
type loopResult struct {
	Start   time.Time
	Lat     []int64 // due → reply, ns; failedNS for failures
	Lag     []int64 // due → send, ns
	Sent    int
	Failed  int
	Aborted bool
	Elapsed time.Duration
}

// due returns request i's due instant.
func (o *openLoop) due(start time.Time, i int) time.Time {
	return start.Add(time.Duration(float64(i) * float64(time.Second) / o.Rate))
}

func (o *openLoop) run() *loopResult {
	res := &loopResult{Lat: make([]int64, o.N), Lag: make([]int64, o.N)}
	for i := range res.Lat {
		res.Lat[i], res.Lag[i] = -1, -1
	}
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	// A short lead-in lets every issuer reach its first wait before
	// request 0 is due.
	res.Start = time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var aborted atomic.Bool
	var sent, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= o.N || aborted.Load() {
					return
				}
				due := o.due(res.Start, i)
				waitUntil(due)
				if o.beforeSend != nil {
					o.beforeSend(i)
				}
				t0 := time.Now()
				ok := o.Issue(w, i)
				t1 := time.Now()
				res.Lag[i] = int64(t0.Sub(due))
				res.Lat[i] = int64(t1.Sub(due))
				sent.Add(1)
				if !ok {
					res.Lat[i] = failedNS
					failed.Add(1)
				}
				if o.AbortLag > 0 && t0.Sub(due) > o.AbortLag {
					aborted.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(res.Start)
	res.Sent, res.Failed, res.Aborted = int(sent.Load()), int(failed.Load()), aborted.Load()
	return res
}

// setTimerSlack sets the calling thread's timer slack in nanoseconds
// (PR_SET_TIMERSLACK). Best effort: on failure sleeps are just coarser.
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}

// issuerProcs adds one P per generator goroutine and returns the function
// that restores GOMAXPROCS: an issuer asleep in nanosleep keeps its P in
// the syscall state, and the spare Ps keep reply delivery from waiting for
// the runtime to retake them. Serving workloads raise it around their
// warm-up and timed phases.
func issuerProcs() (restore func()) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + issuers())
	return func() { runtime.GOMAXPROCS(prev) }
}

// waitUntil blocks until t: nanosleep to within spinMargin, then spin.
// The goroutine holds its thread only while it sleeps: a goroutine locked
// to a thread is slow to wake, which would add to every reply's latency.
// It unlocks before returning, so no thread exits with it (a child process
// started from an exiting thread would get its parent-death signal).
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		runtime.LockOSThread()
		setTimerSlack(1)
		ts := syscall.NsecToTimespec(int64(d))
		// A signal (a child exiting, a preemption) interrupts the sleep;
		// sleep out the remainder rather than spin it.
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
		runtime.UnlockOSThread()
	}
	for time.Now().Before(t) {
	}
}

// sentLat returns the latencies of the requests that were sent.
func (r *loopResult) sentLat() []int64 { return sentOnly(r.Lat) }

// sentLag returns the lags of the requests that were sent.
func (r *loopResult) sentLag() []int64 { return sentOnly(r.Lag) }

// sentOnly drops the -1 entries of requests never sent.
func sentOnly(xs []int64) []int64 {
	out := make([]int64, 0, len(xs))
	for _, x := range xs {
		if x >= 0 {
			out = append(out, x)
		}
	}
	return out
}

// quantile returns the q-quantile of xs (nearest rank) without modifying
// xs; 0 for an empty slice.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantileSorted(s, q)
}

func quantileSorted(s []int64, q float64) int64 {
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// tailQuantile is the highest of p99/p90/p50 that leaves at least ten
// samples beyond it (0.5 when even the median does not), so a reported
// tail always rests on enough observations.
func tailQuantile(n int) float64 {
	for _, pct := range []int{99, 90} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0.5
}

// medianFloat returns the median of xs.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
