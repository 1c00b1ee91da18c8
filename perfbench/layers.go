package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"a64fxbench/internal/fft"
	"a64fxbench/internal/linalg"
	"a64fxbench/internal/obs"
	"a64fxbench/internal/serve"
	"a64fxbench/internal/sparse"
	"a64fxbench/internal/spec"
	"a64fxbench/internal/telemetry"
)

// layerSums accumulates the per-layer times of span trees: the sweep's
// artifact:<id> spans and simmpi's job:<label> spans with their setup,
// run-pass and report children.
type layerSums struct {
	jobs, ranks                 float64
	setup, runPass, report      float64 // seconds
	artifact                    map[string]float64
	sweepSelf                   float64
	artifactCover, writeCounter float64 // counted: WriteCounters wall and the part artifacts cover
}

func newLayerSums() *layerSums { return &layerSums{artifact: map[string]float64{}} }

func seconds(n *telemetry.SpanNode) float64 { return float64(n.DurationNS) / 1e9 }

// add folds one tree into the sums.
func (l *layerSums) add(n *telemetry.SpanNode) {
	if n == nil || n.Clock == string(telemetry.ClockVirtual) {
		return
	}
	switch {
	case strings.HasPrefix(n.Name, "artifact:"):
		l.artifact[strings.TrimPrefix(n.Name, "artifact:")] += seconds(n)
		l.sweepSelf += seconds(n) - covered(n, "job:")
	case strings.HasPrefix(n.Name, "job:"):
		l.jobs++
		l.ranks += attrNum(n.Attrs["ranks"])
		for _, c := range n.Children {
			switch c.Name {
			case "setup":
				l.setup += seconds(c)
			case "run-pass":
				l.runPass += seconds(c)
			case "report":
				l.report += seconds(c)
			}
		}
	case n.Name == "serve.WriteCounters":
		l.writeCounter += seconds(n)
		l.artifactCover += covered(n, "artifact:")
	}
	for _, c := range n.Children {
		l.add(c)
	}
}

// covered is the length of the union of n's wall-clock children whose
// name has the prefix: the part of n that layer accounts for. n minus
// covered is n's self time.
func covered(n *telemetry.SpanNode, prefix string) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range n.Children {
		if c.Clock != string(telemetry.ClockVirtual) && strings.HasPrefix(c.Name, prefix) {
			ivs = append(ivs, iv{c.StartNS, c.StartNS + c.DurationNS})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return float64(total) / 1e9
}

func attrNum(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// metrics writes the per-layer values, averaged over the n trees folded
// in: traced passes, or serve-mix's retained miss requests.
func (l *layerSums) metrics(m map[string]metric, n float64) {
	m["simmpi.jobs"] = metric{l.jobs / n, "count"}
	m["simmpi.ranks"] = metric{l.ranks / n, "count"}
	m["simmpi.setup_s"] = metric{l.setup / n, "s"}
	m["simmpi.run_pass_s"] = metric{l.runPass / n, "s"}
	m["simmpi.report_s"] = metric{l.report / n, "s"}
	rps := 0.0
	if l.runPass > 0 {
		rps = l.ranks / l.runPass
	}
	m["simmpi.ranks_per_run_s"] = metric{rps, "1/s"}
	for _, id := range artifactIDs() {
		m["sweep.artifact_s."+id] = metric{l.artifact[id] / n, "s"}
	}
	m["sweep.self_s"] = metric{l.sweepSelf / n, "s"}
	m["metrics.snapshot_s"] = metric{(l.writeCounter - l.artifactCover) / n, "s"}
}

// artifactIDs are the ids that get a sweep.artifact_s.<id> metric: the
// paper suite, plus ext-machine for serve-mix's misses.
func artifactIDs() []string { return append(paperIDs(), "ext-machine") }

// serveLayer reads the client's latencies and the daemon's own
// instrumentation after a serve phase. A batch workload runs no daemon:
// its serve metrics read 0.
func serveLayer(m map[string]metric, r *serveRun) {
	m["spec.registry_size"] = metric{float64(len(spec.Machines())), "count"}
	var met *serve.Metrics
	if r != nil {
		met = r.srv.Metrics()
	}
	set := func(name, unit string, v func() float64) {
		m[name] = metric{0, unit}
		if r != nil {
			m[name] = metric{v(), unit}
		}
	}
	for _, st := range []string{"decode", "cache-lookup", "singleflight-wait",
		"admission", "engine-execute", "render", "write"} {
		set("serve."+st+"_p50_ms", "ms", func() float64 { return met.StageQuantiles(st, 0.50)[0] * 1e3 })
		set("serve."+st+"_p99_ms", "ms", func() float64 { return met.StageQuantiles(st, 0.99)[0] * 1e3 })
	}
	for _, l := range latencyMetrics {
		set(l.name, "ms", func() float64 { return quantile(r.latencies(l.hit), l.q) })
	}
	set("serve.cache_hit_ratio", "ratio", func() float64 { return met.CacheHitRatio() })
	set("serve.rejected", "count", func() float64 { return met.CountersSnapshot()["rejected"] })
	set("serve.cache_entries", "count", func() float64 { return promGauge(met, "a64fxbench_serve_cached_responses") })
	set("serve.hit_n", "count", func() float64 { return float64(len(r.hitMS)) })
	set("serve.miss_n", "count", func() float64 { return float64(len(r.missMS)) })
}

// promGauge reads one unlabelled series from the Prometheus exposition.
func promGauge(met *serve.Metrics, name string) float64 {
	var buf bytes.Buffer
	if err := met.WritePrometheus(&buf); err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err == nil {
				return f
			}
		}
	}
	return math.NaN()
}

// runtimeSampler watches the Go runtime through runtime/metrics over a
// phase: totals as deltas, heap and goroutine peaks by sampling.
type runtimeSampler struct {
	stop, done        chan struct{}
	alloc0, cycles0   uint64
	pause0            uint64
	heapPeak, gorPeak uint64
}

const samplePeriod = 20 * time.Millisecond

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes", "/sched/goroutines:goroutines"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func pauseTotalNS() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

func startRuntimeSampler() *runtimeSampler {
	s0 := readRuntime()
	r := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{}),
		alloc0: s0[0].Value.Uint64(), cycles0: s0[1].Value.Uint64(), pause0: pauseTotalNS()}
	go func() {
		defer close(r.done)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			s := readRuntime()
			r.heapPeak = max(r.heapPeak, s[2].Value.Uint64())
			r.gorPeak = max(r.gorPeak, s[3].Value.Uint64())
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops the sampler and writes the runtime metrics.
func (r *runtimeSampler) finish(m map[string]metric) {
	close(r.stop)
	<-r.done
	s := readRuntime()
	m["runtime.alloc_mb"] = metric{float64(s[0].Value.Uint64()-r.alloc0) / (1 << 20), "MB"}
	m["runtime.gc_cycles"] = metric{float64(s[1].Value.Uint64() - r.cycles0), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(pauseTotalNS()-r.pause0) / 1e6, "ms"}
	m["runtime.heap_peak_mb"] = metric{float64(r.heapPeak) / (1 << 20), "MB"}
	m["runtime.goroutines_peak"] = metric{float64(r.gorPeak), "count"}
}

// kernelSink keeps kernel results live.
var kernelSink float64

// timeKernel repeats f for at least minTime and returns seconds per call.
func timeKernel(f func()) float64 {
	const minTime = 250 * time.Millisecond
	f() // warm caches and pages
	n := 0
	t0 := time.Now()
	for time.Since(t0) < minTime {
		f()
		n++
	}
	return time.Since(t0).Seconds() / float64(n)
}

// kernels times the real numerical kernels the suite's simulated jobs
// call, at the suite's sizes: HPCG's 80³ 27-point operator, Nekbone's
// order-16 tensor apply, a 3D FFT on CASTEP's 100³ grid and the CG
// vector update. Bytes are computed from array sizes, not measured.
func kernels(m map[string]metric) error {
	a, err := sparse.Stencil27(80, 80, 80)
	if err != nil {
		return err
	}
	x, y := make([]float64, a.N), make([]float64, a.N)
	for i := range x {
		x[i] = 1 + float64(i%7)
	}
	t := timeKernel(func() { a.SpMV(x, y) })
	m["kernel.spmv_gflops"] = metric{a.SpMVFlops() / t / 1e9, "GF/s"}
	t = timeKernel(func() { a.SymGS(x, y) })
	m["kernel.symgs_gflops"] = metric{a.SymGSFlops() / t / 1e9, "GF/s"}

	const order = 16
	d := linalg.NewMatrix(order, order)
	for i := range d.Data {
		d.Data[i] = float64(i%5) - 2
	}
	u, out := make([]float64, order*order*order), make([]float64, order*order*order)
	for i := range u {
		u[i] = float64(i % 11)
	}
	t = timeKernel(func() {
		for axis := 0; axis < 3; axis++ {
			linalg.TensorApply3D(d, u, out, order, axis)
		}
	})
	m["kernel.tensor3d_gflops"] = metric{3 * linalg.TensorApply3DFlops(order) / t / 1e9, "GF/s"}

	const grid = 100
	g := fft.NewGrid3D(grid)
	for i := range g.Data {
		g.Data[i] = complex(float64(i%13), 0)
	}
	t = timeKernel(g.Forward3D)
	m["kernel.fft3d_gflops"] = metric{fft.Flops3D(grid) / t / 1e9, "GF/s"}

	w := make([]float64, a.N)
	t = timeKernel(func() { linalg.Waxpby(1.5, x, -0.5, y, w) })
	m["kernel.waxpby_gbs"] = metric{3 * 8 * float64(a.N) / t / 1e9, "GB/s-computed"}
	kernelSink = y[0] + out[0] + w[0] + real(g.Data[0])
	return nil
}

// writeSpans writes the traced run's span trees once, as one Chrome
// trace-event file.
func writeSpans(dir, name string, entries []*telemetry.Entry) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.WriteSpanChrome(f, entries); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
