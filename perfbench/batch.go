package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"a64fxbench/internal/core"
	"a64fxbench/internal/metrics"
	"a64fxbench/internal/serve"
	"a64fxbench/internal/sweep"
	"a64fxbench/internal/sweep/golden"
	"a64fxbench/internal/telemetry"
)

// countedIDs is the counted workload's subset. table10, table7, fig4 and
// ext-noise each need more than 2 GB counted today, so they are left out
// to keep repeated runs inside an 8 GB host; the counted-vs-uncounted
// RSS blow-up still shows on these four.
var countedIDs = []string{"table4", "fig3", "table6", "fig1"}

// minPasses is the fewest passes a batch run makes, so its time is a
// median even when one pass is over half the run.
const minPasses = 2

// paperIDs are the ids of `a64fxbench all`, in paper order.
func paperIDs() []string {
	var ids []string
	for _, e := range core.List() {
		ids = append(ids, e.ID)
	}
	return ids
}

// pass is one timed execution of a batch workload.
type pass struct {
	interval
	attempted, failed int
	tree              *telemetry.SpanNode // traced passes only
	jsonBytes         int                 // counted: snapshot bytes written
	entries           int                 // counted: snapshot entries
}

// batch is the state of a batch workload: suite or counted. Its inputs
// are the fixed id lists in the CLI's order and the seed does not change
// them, since the order in which the sweep hands experiments to its
// workers moves wall time and peak RSS by itself.
type batch struct {
	counted  bool
	root     string // repository root, for the check data
	manifest golden.Manifest
	baseline *metrics.Snapshot
}

// runPasses repeats the workload while another pass of median length
// still fits in `seconds`, so a run measures whole passes only.
func (b *batch) runPasses(ctx context.Context, seconds float64, traced bool) ([]pass, error) {
	var passes []pass
	var walls []float64
	start := time.Now()
	for {
		p, err := b.pass(ctx, len(passes), traced)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		walls = append(walls, p.wall)
		if len(passes) >= minPasses && time.Since(start).Seconds()+median(walls) > seconds {
			return passes, nil
		}
	}
}

// medianPass is a batch workload's wall and CPU time: the median over
// its passes. The experiments of a pass are unequal, so no percentile is
// taken over them; a pass is the unit.
func medianPass(passes []pass) interval {
	var walls, cpus []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
	}
	return interval{median(walls), median(cpus)}
}

// pass runs the workload once: the 15 paper ids through sweep.Run and
// serve.WriteArtifacts (the `all -quick` path), or the counted subset
// through serve.WriteCounters (the `counters -quick -format=json`
// path). The outputs are checked after the clock stops.
func (b *batch) pass(ctx context.Context, n int, traced bool) (pass, error) {
	settle()
	var tr *telemetry.Trace
	if traced {
		tr = telemetry.NewTrace(fmt.Sprintf("pass-%d", n), b.name())
		ctx = telemetry.ContextWithSpan(ctx, tr.Root())
	}
	if b.counted {
		return b.countedPass(ctx, tr)
	}
	return b.suitePass(ctx, tr)
}

func (b *batch) name() string {
	if b.counted {
		return "counted"
	}
	return "suite"
}

func (b *batch) suitePass(ctx context.Context, tr *telemetry.Trace) (pass, error) {
	req := core.Request{IDs: paperIDs(), Quick: true, Format: "text"}
	w := startWatch()
	sp := tr.Root().Child("sweep.Run")
	results := sweep.New(0).Run(telemetry.ContextWithSpan(ctx, sp), req.IDs, core.Options{Quick: true})
	sp.End()
	var out bytes.Buffer
	rs := tr.Root().Child("serve.WriteArtifacts")
	renderErr := serve.WriteArtifacts(&out, results, req)
	rs.End()
	p := pass{interval: w.stop()}
	tr.Finish()
	p.tree = tr.Tree()

	if b.manifest == nil {
		m, err := golden.Load(filepath.Join(b.root, "internal/sweep/testdata/golden/manifest.txt"))
		if err != nil {
			return pass{}, err
		}
		b.manifest = m
	}
	for _, r := range results {
		p.attempted++
		if r.Err != nil || golden.Digest(r.Artifact) != b.manifest[r.ID] {
			p.failed++
		}
	}
	p.attempted++ // the render
	if renderErr != nil || out.Len() == 0 {
		p.failed++
	}
	return p, nil
}

func (b *batch) countedPass(ctx context.Context, tr *telemetry.Trace) (pass, error) {
	req, err := core.Request{IDs: countedIDs, Quick: true, Format: "json"}.Normalized()
	if err != nil {
		return pass{}, err
	}
	var out bytes.Buffer
	w := startWatch()
	sp := tr.Root().Child("serve.WriteCounters")
	runErr := serve.WriteCounters(telemetry.ContextWithSpan(ctx, sp), &out, req, 0)
	sp.End()
	p := pass{interval: w.stop(), jsonBytes: out.Len()}
	tr.Finish()
	p.tree = tr.Tree()

	if b.baseline == nil {
		if b.baseline, err = countedBaseline(filepath.Join(b.root, "BENCH_sweep.json")); err != nil {
			return pass{}, err
		}
	}
	p.attempted = len(countedIDs)
	if runErr != nil {
		p.failed = len(countedIDs)
		return p, nil
	}
	snap, err := metrics.ReadSnapshot(&out)
	if err != nil {
		p.failed = len(countedIDs)
		return p, nil
	}
	p.entries = len(snap.Entries)
	p.failed = len(badCountedIDs(b.baseline, snap))
	return p, nil
}

// countedBaseline is the committed snapshot restricted to countedIDs.
func countedBaseline(path string) (*metrics.Snapshot, error) {
	full, err := metrics.LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	sub := metrics.NewSnapshot(full.Meta)
	for _, e := range full.Entries {
		if idOf(e.Key) != "" {
			sub.Entries = append(sub.Entries, e)
		}
	}
	return sub, nil
}

// idOf returns the counted id a snapshot key belongs to, or "".
func idOf(key string) string {
	for _, id := range countedIDs {
		if strings.HasPrefix(key, id+"/") {
			return id
		}
	}
	return ""
}

// badCountedIDs compares under `a64fxbench diff`'s rules at its default
// tolerance (work exact, time and rate within 1%) and returns the ids
// with an entry that moved either way, was removed or was added: the
// simulated results are deterministic, so a faster change that alters
// one fails here instead of winning.
func badCountedIDs(baseline, snap *metrics.Snapshot) map[string]bool {
	res := metrics.Diff(baseline, snap, metrics.DiffOptions{TimeTol: 0.01, RateTol: 0.01})
	bad := map[string]bool{}
	for _, ds := range [][]metrics.DiffEntry{res.Regressions, res.Improvements} {
		for _, d := range ds {
			bad[idOf(d.Key)] = true
		}
	}
	for _, ks := range [][]string{res.Removed, res.Added} {
		for _, k := range ks {
			bad[idOf(k)] = true
		}
	}
	return bad
}
