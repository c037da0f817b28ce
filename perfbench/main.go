// Command perfbench is the spanner stack's benchmark: three named
// workloads driven through public entry points only — a spannerd built from
// the tree under test and run as a subprocess, the /metricz scrape, and the
// builder, artifact, dynamic, oracle and routing packages called
// in-process.
//
//	bash perfbench/run.sh --workload read-wire --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//
// Each run prints a table of every metric by name and unit, then, as its
// last line, one JSON object {"correct","attempted","failed","metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Any wrong answer makes the run exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*report, error){
	"read-wire":    runReadWire,
	"churn-router": runChurnRouter,
	"build":        runBuild,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"read-wire", "churn-router", "build"}

// env is what a workload runner gets: its settings, the traced-run span
// recorder (nil when untraced), a scratch directory, and the spannerd
// binary (built on first use).
type env struct {
	ctx     context.Context
	seed    int64
	seconds float64
	trace   bool
	tr      *tracer
	dir     string

	root, build string
	binOnce     sync.Once
	bin         string
	binErr      error
}

// spannerd returns the daemon binary, building it from the tree under test
// on the first call of this invocation.
func (e *env) spannerd() (string, error) {
	e.binOnce.Do(func() {
		dir := filepath.Join(e.build, "bin")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			e.binErr = err
			return
		}
		e.bin, e.binErr = buildSpannerd(e.ctx, e.root, dir)
	})
	return e.bin, e.binErr
}

// metricVal is one reported number.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's outcome.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	// Violations are wrong answers the checker caught.
	Violations int
	FirstWrong error
	// E2E holds every end-to-end metric; Named the workload's own names
	// for them and the metrics printed but not gated (see registry.json);
	// Layer the per-layer metrics of a traced run.
	E2E   map[string]float64
	Named []namedVal
	Layer map[string]float64
	// Lines are extra table lines (the per-query budget, self times).
	Lines []string
}

type namedVal struct {
	Name  string
	Value float64
	Unit  string
}

func newReport(w string) *report {
	return &report{Workload: w, E2E: map[string]float64{}, Layer: map[string]float64{}}
}

func (r *report) named(name string, v float64, unit string) {
	r.Named = append(r.Named, namedVal{name, v, unit})
}

func (r *report) linef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.Violations == 0 }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) (code int) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "read-wire | churn-router | build | all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	root := fs.String("root", ".", "checkout root holding the tree under test")
	build := fs.String("build", ".bench_build", "directory for binaries, scratch files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "cmd", "spannerd")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s does not hold the spanner tree: %v\n", *root, err)
		return 2
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Children die with the benchmark on every path: return, panic and
	// SIGINT/SIGTERM here, parent death through Pdeathsig.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			stopAll()
			os.Exit(1)
		case <-done:
		}
	}()
	defer close(done)
	defer signal.Stop(sigc)
	defer stopAll()
	defer func() {
		if p := recover(); p != nil {
			stopAll()
			panic(p)
		}
	}()

	if err := os.MkdirAll(*build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var reps []*report
	for _, name := range names {
		e := &env{ctx: ctx, seed: *seed, seconds: *seconds, trace: *trace == 1,
			dir: dir, root: *root, build: *build}
		if e.trace {
			e.tr = newTracer()
		}
		rep, err := workloads[name](e)
		stopAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if e.tr != nil {
			path := filepath.Join(*build, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, *seed))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				if err := e.tr.write(path); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
				} else {
					rep.linef("spans written to %s (cmd/tracestats reads them)", path)
				}
			}
			var sb strings.Builder
			e.tr.printSelfTimes(&sb)
			rep.Lines = append(rep.Lines, strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")...)
		}
		printReport(stdout, rep, e.trace)
		reps = append(reps, rep)
	}
	out := resultLine(reps, *trace == 1)
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	if !out.Correct {
		for _, r := range reps {
			if r.FirstWrong != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %d wrong answers, first: %v\n", r.Workload, r.Violations, r.FirstWrong)
			}
		}
		return 1
	}
	return 0
}

// result is the last stdout line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// resultLine folds the reports into the JSON result: end-to-end metrics
// untraced, per-layer metrics traced. With several workloads (--workload
// all) metric names are prefixed "workload/".
func resultLine(reps []*report, traced bool) result {
	out := result{Correct: true, Metrics: map[string]metricVal{}}
	specs := e2eSpecs
	if traced {
		specs = layerSpecs
	}
	for _, r := range reps {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		vals := r.E2E
		if traced {
			vals = r.Layer
		}
		for _, s := range specs {
			name := s.Name
			if len(reps) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = metricVal{Value: vals[s.Name], Unit: s.Unit}
		}
	}
	return out
}

// printReport writes the human-readable table for one workload.
func printReport(w io.Writer, r *report, traced bool) {
	mode := "untraced: end-to-end metrics"
	if traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "=== %s (%s) ===\n", r.Workload, mode)
	fmt.Fprintf(w, "sent %d  succeeded %d  failed %d  wrong %d (checker)\n",
		r.Attempted, r.Attempted-r.Failed, r.Failed, r.Violations)
	if !traced {
		for _, s := range e2eSpecs {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", s.Name, r.E2E[s.Name], s.Unit)
		}
		for _, v := range r.Named {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", v.Name, v.Value, v.Unit)
		}
	} else {
		names := make([]string, 0, len(r.Layer))
		for k := range r.Layer {
			names = append(names, k)
		}
		sort.Strings(names)
		units := map[string]string{}
		for _, s := range layerSpecs {
			units[s.Name] = s.Unit
		}
		for _, k := range names {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, r.Layer[k], units[k])
		}
	}
	for _, l := range r.Lines {
		fmt.Fprintln(w, "  "+l)
	}
}

// gcSettle collects and returns freed memory to the OS now, so neither a
// collection nor the background scavenger bills one phase's garbage to the
// next.
func gcSettle() {
	debug.FreeOSMemory()
	time.Sleep(10 * time.Millisecond)
}
