// Command perfbench is the repository's benchmark. It drives one of
// three workloads through the public functions of sweep, serve, core
// and spec, checks every output, and prints one JSON result line:
//
//	suite      the 15 paper ids of `all -quick`: sweep.Run + serve.WriteArtifacts
//	counted    serve.WriteCounters for table4 fig3 table6 fig1, quick, json
//	serve-mix  open-loop cache hits and unique-digest misses against serve
//
// An untraced run (-trace 0) reports the end-to-end metrics: wall_s,
// cpu_s and peak_rss_mb; serve-mix also prints its per-class latency on
// the summary line. A traced run
// (-trace 1) repeats the workload untraced, with the daemon's telemetry
// off, and traced, with it on, half the time each; it reports the
// per-layer metrics and the tracing overhead.
// perfbench/run.py builds this program, times its set-up in fresh
// processes and adds setup_s.
//
// Usage, from the repository root:
//
//	perfbench -workload suite -seed 1 -seconds 15 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"

	"a64fxbench/internal/spec"
	"a64fxbench/internal/telemetry"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	setupOnly bool
	root      string // repository root: check data is read from here
	spans     string // directory for the traced run's Chrome span file
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "suite, counted or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "exit once set-up is done")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.spans, "spans", ".bench_build/spans", "directory for the traced run's span file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.traced = trace == 1
	if err := run(context.Background(), cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// ran is set by the first run: ru_maxrss is the peak of the whole
// process, so peak_rss_mb describes a workload only if the process ran
// that workload alone.
var ran atomic.Bool

// phaseOut is one measured phase of a workload.
type phaseOut struct {
	interval                  // the workload's wall and CPU time
	rssMB             float64 // peak RSS at the end of the phase
	attempted, failed int
	passWalls         []float64 // batch: each pass's wall seconds
	serve             *serveRun // serve-mix only
	layers            *layerSums
	trees             float64 // span trees folded into layers
	entries, jsonB    int     // counted: snapshot size of the last pass
	runtime           map[string]metric
	spans             []*telemetry.Entry
}

// run executes one workload. It prints "ready" once set-up is done, a
// summary line, and the result JSON as its last line.
func run(ctx context.Context, cfg config, out io.Writer) error {
	if ran.Swap(true) {
		return errors.New("one workload per process: peak_rss_mb is the peak of the whole process")
	}
	// An untraced run is one phase as users run the program. A traced
	// run is two halves, one with no tracing at all and one traced; the
	// seed's parity picks which runs first, so the process's own warm-up
	// does not bias the overhead one way over seeds.
	modes := []serveMode{serveDefault}
	if cfg.traced {
		modes = []serveMode{serveBare, serveTraced}
		if cfg.seed%2 != 0 {
			modes[0], modes[1] = modes[1], modes[0]
		}
	}
	phaseSeconds := cfg.seconds / float64(len(modes))
	var b *batch
	var env *serveEnv
	switch cfg.workload {
	case "suite", "counted":
		b = &batch{counted: cfg.workload == "counted", root: cfg.root}
		_ = paperIDs()      // experiment registry
		_ = spec.Machines() // machine registry
	case "serve-mix":
		var err error
		if env, err = startServe("p0", modes[0], phaseSeconds); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown workload %q (want suite, counted or serve-mix)", cfg.workload)
	}
	fmt.Fprintln(out, "ready")
	if cfg.setupOnly {
		if env != nil {
			env.close()
		}
		return nil
	}

	ref0 := refLoop()
	res := result{Metrics: map[string]metric{}}
	byMode := map[serveMode]*phaseOut{}
	for i, mode := range modes {
		p, err := phase(ctx, cfg, b, env, fmt.Sprintf("p%d", i), phaseSeconds, mode)
		if err != nil {
			return err
		}
		env = nil // a later phase starts its own daemon
		byMode[mode] = p
	}
	ph := byMode[serveDefault]
	if !cfg.traced {
		ph.endToEnd(res.Metrics)
	} else {
		un := byMode[serveBare]
		ph = byMode[serveTraced]
		m := res.Metrics
		ph.layerMetrics(m)
		m["trace.overhead_wall_s"] = metric{ph.wall - un.wall, "s"}
		m["trace.overhead_cpu_s"] = metric{ph.cpu - un.cpu, "s"}
		m["trace.overhead_hit_p50_ms"] = metric{0, "ms"}
		if ph.serve != nil {
			m["trace.overhead_hit_p50_ms"] = metric{quantile(ph.serve.hitMS, 0.5) - quantile(un.serve.hitMS, 0.5), "ms"}
		}
		if err := kernels(m); err != nil {
			return err
		}
		ph.attempted += un.attempted
		ph.failed += un.failed
		path, err := writeSpans(cfg.spans, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed), ph.spans)
		if err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintln(out, "spans:", path)
	}
	ref1 := refLoop()
	if cfg.traced {
		m := res.Metrics
		m["host.ref_loop_ms"] = metric{ms(ref0+ref1) / 2, "ms"}
		m["gen.late_max_ms"] = metric{0, "ms"}
		m["gen.backlog_end"] = metric{0, "count"}
		if ph.serve != nil {
			m["gen.late_max_ms"] = metric{ph.serve.lateMaxMS, "ms"}
			m["gen.backlog_end"] = metric{float64(ph.serve.backlogEnd), "count"}
		}
	}
	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.Correct = ph.failed == 0
	fmt.Fprintf(out, "perfbench %s seed=%d wall_s=%.3f cpu_s=%.3f peak_rss_mb=%.1f", cfg.workload, cfg.seed, ph.wall, ph.cpu, ph.rssMB)
	if b != nil {
		fmt.Fprintf(out, " pass_walls=%.3f", ph.passWalls)
	} else {
		r := ph.serve
		for _, l := range latencyMetrics {
			fmt.Fprintf(out, " %s=%.3f", l.name, quantile(r.latencies(l.hit), l.q))
		}
		fmt.Fprintf(out, " hit_n=%d miss_n=%d gen.late_max_ms=%.3f gen.backlog_end=%d",
			len(r.hitMS), len(r.missMS), r.lateMaxMS, r.backlogEnd)
	}
	fmt.Fprintf(out, " host.ref_loop_ms=%.1f/%.1f failed=%d/%d\n", ms(ref0), ms(ref1), ph.failed, ph.attempted)
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, v.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// phase measures a workload for about `seconds`: batch workloads run
// whole passes and report the median pass; serve-mix drives one serve
// phase. env, when set, is serve-mix's already warmed daemon; otherwise
// phase starts its own. The mode configures the daemon and, for
// serveTraced, turns the benchmark's own tracing on.
func phase(ctx context.Context, cfg config, b *batch, env *serveEnv, tag string, seconds float64, mode serveMode) (*phaseOut, error) {
	p := &phaseOut{layers: newLayerSums(), runtime: map[string]metric{}}
	traced := mode == serveTraced
	var rt *runtimeSampler
	if traced {
		rt = startRuntimeSampler()
	}
	if b != nil {
		passes, err := b.runPasses(ctx, seconds, traced)
		if err != nil {
			return nil, err
		}
		for _, ps := range passes {
			p.passWalls = append(p.passWalls, ps.wall)
			p.attempted += ps.attempted
			p.failed += ps.failed
			p.entries, p.jsonB = ps.entries, ps.jsonBytes
			if ps.tree != nil {
				p.layers.add(ps.tree)
				p.trees++
				p.spans = append(p.spans, &telemetry.Entry{RequestID: ps.tree.Name + "-" + tag,
					Op: b.name(), Status: 200, DurationMS: float64(ps.tree.DurationNS) / 1e6, Spans: ps.tree})
			}
		}
		p.interval = medianPass(passes)
	} else {
		if env == nil {
			var err error
			if env, err = startServe(tag, mode, seconds); err != nil {
				return nil, err
			}
		}
		defer env.close()
		sr, err := runServe(ctx, env, cfg.seed, tag, seconds)
		if err != nil {
			return nil, err
		}
		p.serve = sr
		p.attempted, p.failed = sr.attempted, sr.failed
		p.interval = sr.interval
	}
	if traced {
		rt.finish(p.runtime)
	}
	p.rssMB = peakRSSMB()
	return p, nil
}

// endToEnd writes the untraced run's metrics.
func (p *phaseOut) endToEnd(m map[string]metric) {
	m["wall_s"] = metric{p.wall, "s"}
	m["cpu_s"] = metric{p.cpu, "s"}
	m["peak_rss_mb"] = metric{p.rssMB, "MB"}
}

// layerMetrics writes the traced run's per-layer metrics.
func (p *phaseOut) layerMetrics(m map[string]metric) {
	n := p.trees
	if p.serve != nil {
		// serve-mix: the traced daemon's flight recorder keeps every
		// request's span tree (serveTraced); the scheduled misses among
		// them, warm-up excluded, give the layers below serve per
		// executed request.
		misses := map[string]bool{}
		for _, r := range p.serve.misses {
			misses[r.id] = true
		}
		for _, e := range p.serve.srv.Recorder().Snapshot().Slowest {
			if !misses[e.RequestID] {
				continue
			}
			p.layers.add(e.Spans)
			p.spans = append(p.spans, e)
			n++
		}
	}
	p.layers.metrics(m, max(n, 1))
	m["metrics.entries"] = metric{float64(p.entries), "count"}
	m["metrics.json_bytes"] = metric{float64(p.jsonB), "bytes"}
	serveLayer(m, p.serve)
	for k, v := range p.runtime {
		m[k] = v
	}
	if p.serve != nil {
		p.spans = append(p.spans, p.serve.spanEntries("serve")...)
	}
}
