package main

// CPU time, the gated cost measure. On a small machine shared with other
// tenants, wall-clock time follows the neighbours: one read-wire run's
// per-second median latency ranged from 136 µs to 3 ms. The CPU time a
// process is charged tracks the work the program did far more closely.
// Wall-clock figures are still printed beside it, ungated.

import (
	"syscall"
	"time"
	"unsafe"
)

// procCPU returns the CPU time process pid has used so far, all its
// threads included, to the nanosecond: it reads the process's CPU-time
// clock (clock_getcpuclockid), which Linux exposes for any process.
func procCPU(pid int) (time.Duration, error) {
	const cpuClockSched = 2
	if pid <= 0 || pid >= 1<<28 { // the clock id packs the pid into 29 bits
		return 0, syscall.ESRCH
	}
	clk := int32(^pid<<3 | cpuClockSched)
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clk), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// selfCPU returns the CPU time this process has used so far, every thread
// included.
func selfCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2 /* CLOCK_PROCESS_CPUTIME_ID */, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
