package main

// The churn-router delta chain, produced during set-up so the timed phase
// ships writes instead of computing them: dynamic.Maintainer applies each
// update batch, artifact.Build freezes the result, artifact.Diff against
// the previous generation gives the delta, and the delta is saved for the
// replicas to load.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/dynamic"
	"spanner/internal/graph"
	"spanner/internal/serve"
)

// deltaChain is a base artifact plus a chain of deltas on disk.
type deltaChain struct {
	BasePath string
	BaseSum  int64
	Paths    []string // Paths[i] turns generation i+1 into i+2
	Sums     []int64  // Sums[i] is generation i+2's checksum
	// Graphs and Spanners hold every generation's graph and spanner
	// (index 0 is the base) for the answer checker.
	Graphs   []*graph.Graph
	Spanners []*graph.EdgeSet
	Reports  []*dynamic.BatchReport
	// Per-delta producer timings (ms) and encoded sizes.
	ApplyMS, BuildMS, DiffMS []float64
	DeltaBytes               []int
	BaseBytes                int
}

// chainConfig sizes a chain.
type chainConfig struct {
	K, Batches, BatchSize int
	// StreamSeed draws the update batches; the artifacts are built with
	// buildSeed.
	StreamSeed int64
	Dir        string
}

// produceChain builds the base artifact over (g, spanner) and the delta
// chain of cfg.Batches seeded update batches.
func produceChain(tr *tracer, parent int64, g *graph.Graph, spanner *graph.EdgeSet, cfg chainConfig) (*deltaChain, error) {
	base, err := artifact.Build(g, spanner, "baswana-sen", cfg.K, buildSeed)
	if err != nil {
		return nil, err
	}
	c := &deltaChain{
		BasePath: filepath.Join(cfg.Dir, "churn-base.spanart"),
		BaseSum:  base.Checksum(),
		Graphs:   []*graph.Graph{g},
		Spanners: []*graph.EdgeSet{spanner.Clone()},
	}
	if err := artifact.Save(c.BasePath, base); err != nil {
		return nil, err
	}
	st, err := os.Stat(c.BasePath)
	if err != nil {
		return nil, err
	}
	c.BaseBytes = int(st.Size())
	m, err := dynamic.NewMaintainer(g, spanner.Clone(), dynamic.Config{})
	if err != nil {
		return nil, err
	}
	stream, err := dynamic.GenerateStream(g, dynamic.StreamConfig{Seed: cfg.StreamSeed, Batches: cfg.Batches, BatchSize: cfg.BatchSize})
	if err != nil {
		return nil, err
	}
	prev := base
	for i, b := range stream {
		var rep *dynamic.BatchReport
		c.ApplyMS = append(c.ApplyMS, ms(tr.timed("dynamic.ApplyBatch", parent, func() { rep, err = m.ApplyBatch(b) })))
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		// Spanner() is the maintainer's live edge set: the next batch
		// would mutate an artifact built over it in place.
		gi, si := m.Graph(), m.Spanner().Clone()
		var next *artifact.Artifact
		c.BuildMS = append(c.BuildMS, ms(tr.timed("artifact.Build", parent, func() {
			next, err = artifact.Build(gi, si, "baswana-sen", cfg.K, buildSeed)
		})))
		if err != nil {
			return nil, err
		}
		var d *artifact.Delta
		c.DiffMS = append(c.DiffMS, ms(tr.timed("artifact.Diff", parent, func() { d, err = artifact.Diff(prev, next) })))
		if err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.Dir, fmt.Sprintf("churn-%03d.spandelta", i))
		if err := artifact.SaveDelta(path, d); err != nil {
			return nil, err
		}
		c.Paths = append(c.Paths, path)
		c.Sums = append(c.Sums, next.Checksum())
		c.DeltaBytes = append(c.DeltaBytes, len(d.Marshal()))
		c.Graphs = append(c.Graphs, gi)
		c.Spanners = append(c.Spanners, si)
		c.Reports = append(c.Reports, rep)
		prev = next
	}
	return c, nil
}

// replayChain replays the chain in-process twice over: each delta is
// applied to the previous artifact (Delta.Apply alone) and to an engine
// serving it (serve.Engine.ApplyDelta: apply plus snapshot swap), each
// timed, and both results are checked against the producer's checksum.
func replayChain(tr *tracer, parent int64, c *deltaChain) (applyMS, engineMS []float64, err error) {
	cur, err := artifact.Load(c.BasePath)
	if err != nil {
		return nil, nil, err
	}
	eng, err := serve.New(cur, serve.Config{})
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	for i, p := range c.Paths {
		d, err := artifact.LoadDelta(p)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		next, err := d.Apply(cur)
		end := time.Now()
		tr.record("artifact.Delta.Apply", parent, start, end)
		applyMS = append(applyMS, ms(end.Sub(start)))
		if err != nil {
			return nil, nil, fmt.Errorf("delta %d: %w", i, err)
		}
		start = time.Now()
		_, err = eng.ApplyDelta(d)
		end = time.Now()
		tr.record("serve.Engine.ApplyDelta", parent, start, end)
		engineMS = append(engineMS, ms(end.Sub(start)))
		if err != nil {
			return nil, nil, fmt.Errorf("engine delta %d: %w", i, err)
		}
		for _, got := range []int64{next.Checksum(), eng.Snapshot().Art.Checksum()} {
			if got != c.Sums[i] {
				return nil, nil, fmt.Errorf("delta %d: applied checksum %#x, producer had %#x", i, uint64(got), uint64(c.Sums[i]))
			}
		}
		cur = next
	}
	return applyMS, engineMS, nil
}
