package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/baseline"
	"spanner/internal/graph"
)

// spannerdForTest builds spannerd from this tree.
func spannerdForTest(t *testing.T) string {
	t.Helper()
	bin, err := buildSpannerd(context.Background(), "..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// smallArtifact saves a tiny artifact for the daemon to serve.
func smallArtifact(t *testing.T, dir string) string {
	t.Helper()
	g := graph.ConnectedGnp(100, 0.08, rand.New(rand.NewSource(1)))
	bs, err := baseline.BaswanaSen(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := artifact.Build(g, bs.Spanner, "baswana-sen", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "small.spanart")
	if err := artifact.Save(p, a); err != nil {
		t.Fatal(err)
	}
	return p
}

// gone reports whether pid no longer runs (absent, or a zombie awaiting a
// reaper that is not us).
func gone(pid int) bool {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return true
	}
	// The state field follows the parenthesized command name.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	return len(f) > 0 && (f[0] == "Z" || f[0] == "X")
}

// A run that fails after starting spannerd leaves no child behind: run's
// cleanup stops every daemon before it returns.
func TestFailedRunLeavesNoChild(t *testing.T) {
	bin := spannerdForTest(t)
	dir := t.TempDir()
	art := smallArtifact(t, dir)
	var pids []int
	workloads["fail-after-start"] = func(e *env) (*report, error) {
		for i := 0; i < 2; i++ {
			d, err := startDaemon(e.ctx, bin, e.dir, i == 0, "-artifact", art)
			if err != nil {
				return nil, err
			}
			pids = append(pids, d.Pid())
			if rss, err := d.PeakRSSMB(); err != nil || rss <= 0 {
				return nil, fmt.Errorf("peak RSS %v, %v", rss, err)
			}
		}
		return nil, errors.New("injected failure")
	}
	defer delete(workloads, "fail-after-start")

	code := run([]string{"--workload", "fail-after-start", "-root", "..", "-build", dir}, io.Discard)
	if code == 0 {
		t.Fatal("failed run exited 0")
	}
	if len(pids) != 2 {
		t.Fatalf("started %d daemons, want 2", len(pids))
	}
	for _, pid := range pids {
		if !gone(pid) {
			t.Errorf("spannerd %d still running after the failed run", pid)
		}
	}
}

// When the benchmark process itself is killed, the kernel kills its
// spannerd (parent-death signal). The test re-runs its own binary as the
// benchmark, SIGKILLs it, and watches the daemon it started.
func TestKilledBenchmarkLeavesNoChild(t *testing.T) {
	if os.Getenv("PERFBENCH_HELPER_ART") != "" {
		helperStartAndHang(t)
		return
	}
	bin := spannerdForTest(t)
	dir := t.TempDir()
	art := smallArtifact(t, dir)
	cmd := exec.Command(os.Args[0], "-test.run", "^TestKilledBenchmarkLeavesNoChild$")
	cmd.Env = append(os.Environ(), "PERFBENCH_HELPER_ART="+art, "PERFBENCH_HELPER_BIN="+bin, "PERFBENCH_HELPER_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var line string
	buf := make([]byte, 256)
	deadline := time.Now().Add(60 * time.Second)
	for !strings.Contains(line, "\n") && time.Now().Before(deadline) {
		n, err := out.Read(buf)
		line += string(buf[:n])
		if err != nil {
			break
		}
	}
	var pid int
	if _, err := fmt.Sscanf(line, "pid %d", &pid); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("helper did not report a daemon: %q", line)
	}
	if gone(pid) {
		t.Fatal("daemon died before the benchmark was killed")
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	for end := time.Now().Add(10 * time.Second); !gone(pid); {
		if time.Now().After(end) {
			syscall.Kill(pid, syscall.SIGKILL)
			t.Fatalf("spannerd %d outlived the killed benchmark", pid)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// helperStartAndHang is the killed benchmark: it starts a daemon, reports
// its pid and waits to be killed.
func helperStartAndHang(t *testing.T) {
	d, err := startDaemon(context.Background(), os.Getenv("PERFBENCH_HELPER_BIN"), os.Getenv("PERFBENCH_HELPER_DIR"),
		false, "-artifact", os.Getenv("PERFBENCH_HELPER_ART"))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("pid %d\n", d.Pid())
	time.Sleep(time.Minute)
	d.Stop()
}
