package main

// The spannerd subprocess harness: build the daemon from the tree under
// test once per invocation, start it on free loopback ports, wait for
// /readyz, read its peak RSS, and kill it on every exit path — normal
// return, error, panic, SIGINT/SIGTERM, and (through PR_SET_PDEATHSIG)
// the benchmark itself being killed.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildSpannerd compiles cmd/spannerd from the module at root into dir and
// returns the binary's path.
func buildSpannerd(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "spannerd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/spannerd")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building spannerd: %v\n%s", err, out.String())
	}
	return bin, nil
}

// daemon is one running spannerd child.
type daemon struct {
	cmd      *exec.Cmd
	HTTPAddr string // host:port of the HTTP listener
	WireAddr string // host:port of the wire listener ("" when disabled)
	logPath  string
	exited   chan struct{} // closed once Wait returned
	waitErr  error
}

// URL is the daemon's HTTP base URL.
func (d *daemon) URL() string { return "http://" + d.HTTPAddr }

// Pid is the child's process id.
func (d *daemon) Pid() int { return d.cmd.Process.Pid }

// children tracks every live daemon so stopAll can reap them from any exit
// path.
var children struct {
	sync.Mutex
	set map[*daemon]struct{}
}

// freePort reserves an ephemeral loopback port and releases it for the
// child to bind.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon launches bin with the given extra flags on fresh loopback
// ports (HTTP always, wire when withWire) and waits until /readyz reports
// the artifact loaded. Cluster replicas answer 503 "unadopted" until the
// router adopts them; that counts as loaded. The child's log goes to a
// file in dir. A free port can be taken between probing it and the
// child's bind, so a child that exits before ready is retried on new
// ports, twice.
func startDaemon(ctx context.Context, bin, dir string, withWire bool, args ...string) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = startDaemonOnce(ctx, bin, dir, withWire, args...); !errors.Is(err, errExitedEarly) {
			return d, err
		}
	}
	return nil, err
}

// errExitedEarly marks a child that exited before it was ready.
var errExitedEarly = errors.New("spannerd exited before ready")

func startDaemonOnce(ctx context.Context, bin, dir string, withWire bool, args ...string) (*daemon, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", httpAddr}, args...)
	var wireAddr string
	if withWire {
		if wireAddr, err = freePort(); err != nil {
			return nil, err
		}
		full = append(full, "-wire-addr", wireAddr)
	}
	logf, err := os.CreateTemp(dir, "spannerd-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the child if the benchmark dies without cleaning
	// up (a SIGKILL from a supervisor's timeout included).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting spannerd: %w", err)
	}
	d := &daemon{cmd: cmd, HTTPAddr: httpAddr, WireAddr: wireAddr, logPath: logf.Name(), exited: make(chan struct{})}
	children.Lock()
	if children.set == nil {
		children.set = make(map[*daemon]struct{})
	}
	children.set[d] = struct{}{}
	children.Unlock()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(ctx, 60*time.Second); err != nil {
		d.Stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls /readyz until the artifact is loaded, the child exits,
// or the timeout passes.
func (d *daemon) waitReady(ctx context.Context, timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(d.URL() + "/readyz")
		if err == nil {
			var body struct {
				Ready  bool   `json:"ready"`
				Reason string `json:"reason"`
			}
			decErr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if decErr == nil && (body.Ready || body.Reason == "unadopted") {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%w (%v): %s", errExitedEarly, d.waitErr, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("spannerd not ready after %v: %s", timeout, d.logTail())
		}
	}
}

// logTail returns the last lines of the child's log for error messages.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// PeakRSSMB reads the child's VmHWM (peak resident set) in MB.
func (d *daemon) PeakRSSMB() (float64, error) { return vmHWM(d.Pid()) }

// vmHWM reads /proc/<pid>/status VmHWM in MB (10^6 bytes).
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// Stop terminates the child: SIGTERM for a graceful drain, SIGKILL when
// it has not exited within two seconds. It returns once the process is
// reaped. Safe to call more than once.
func (d *daemon) Stop() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited races are fine
		select {
		case <-d.exited:
		case <-time.After(2 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	children.Lock()
	delete(children.set, d)
	children.Unlock()
}

// stopAll stops every daemon still running.
func stopAll() {
	children.Lock()
	live := make([]*daemon, 0, len(children.set))
	for d := range children.set {
		live = append(live, d)
	}
	children.Unlock()
	var wg sync.WaitGroup
	for _, d := range live {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.Stop()
		}(d)
	}
	wg.Wait()
}
