package main

import (
	"math"
	"os"
	"os/exec"
	"testing"
	"time"
)

// procCPU reads another process's CPU time to the nanosecond: a busy child
// accumulates it, an idle one does not.
func TestProcCPU(t *testing.T) {
	busy := exec.Command("sh", "-c", "while :; do :; done")
	if err := busy.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		busy.Process.Kill()
		busy.Wait()
	}()
	c0, err := procCPU(busy.Process.Pid)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	c1, err := procCPU(busy.Process.Pid)
	if err != nil {
		t.Fatal(err)
	}
	if d := c1 - c0; d < 20*time.Millisecond || d > 500*time.Millisecond {
		t.Errorf("busy child used %v of CPU in 200ms", d)
	}
	gone := exec.Command("true")
	if err := gone.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := procCPU(gone.Process.Pid); err == nil {
		t.Error("procCPU of a reaped process succeeded")
	}
	if self, err := procCPU(os.Getpid()); err != nil || self <= 0 || selfCPU() <= 0 {
		t.Errorf("own CPU time: procCPU %v (%v), selfCPU %v", self, err, selfCPU())
	}
}

// splitCPU charges reads outside update windows at their own rate, and the
// rest of each window to its update.
func TestSplitCPU(t *testing.T) {
	// 1000 reads at 100/s over 10s, all sent on time; two updates, each
	// a one-second window holding 100 reads.
	const rate = 100.0
	start := time.Unix(1000, 0)
	reads := &loopResult{Start: start, Lag: make([]int64, 1000), Lat: make([]int64, 1000), Sent: 1000}
	windows := []cpuWindow{
		{start.Add(2 * time.Second), start.Add(3 * time.Second), 300 * time.Millisecond},
		{start.Add(6 * time.Second), start.Add(7 * time.Second), 500 * time.Millisecond},
	}
	// Reads cost 1ms each (800 outside: 800ms); the windows add 200ms and
	// 400ms of update work on top of their 100 reads each.
	got := splitCPU(reads, rate, windows, 800*time.Millisecond+800*time.Millisecond)
	if math.Abs(got.PerRead-1000) > 1e-6 || math.Abs(got.PerUpdate-300) > 1e-6 {
		t.Errorf("splitCPU = %+v, want 1000 µs per read and 300 ms per update", got)
	}
}
