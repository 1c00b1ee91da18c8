package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"a64fxbench/internal/metrics"
	"a64fxbench/internal/serve"
)

// benchmark is the part of BENCHMARK.json the tests check against.
type benchmark struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
}

func readBenchmark(t *testing.T) benchmark {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// Every reported percentile must have at least ten samples beyond it, in
// a whole serve-mix run and in the traced half of one: a percentile with
// fewer is one slow request, not a distribution.
func TestPercentilesHaveTenSamplesBeyond(t *testing.T) {
	secs := readBenchmark(t).RunSeconds
	for _, length := range []float64{secs, secs / 2} {
		hits, misses := schedule(1, "t", length)
		for _, l := range latencyMetrics {
			n := len(misses)
			if l.hit {
				n = len(hits)
			}
			if got := beyond(n, l.q); got < 10 {
				t.Errorf("%s over a %gs schedule: %d samples, %d beyond; want >= 10", l.name, length, n, got)
			}
		}
	}
}

// A batch workload's time is the median of whole passes; no percentile
// is taken over its unequal experiments.
func TestBatchTimeIsMedianPass(t *testing.T) {
	passes := []pass{{interval: interval{9, 20}}, {interval: interval{7, 14}}, {interval: interval{8, 16}}}
	if got := medianPass(passes); got != (interval{8, 16}) {
		t.Fatalf("medianPass = %+v, want {8 16}", got)
	}
}

// The end-to-end metrics are time and memory, the same on every workload
// and none a percentile; run.py adds setup_s.
func TestEndToEndMetricsHaveNoPercentiles(t *testing.T) {
	p := &phaseOut{interval: interval{8, 16}, rssMB: 160}
	m := map[string]metric{}
	p.endToEnd(m)
	m["setup_s"] = metric{}
	e2e := readBenchmark(t).EndToEnd
	if len(m) != len(e2e) {
		t.Errorf("endToEnd writes %v; BENCHMARK.json lists %v", m, e2e)
	}
	for _, e := range e2e {
		if _, ok := m[e.Name]; !ok {
			t.Errorf("end-to-end metric %s not written", e.Name)
		}
		if strings.Contains(e.Name, "_p") {
			t.Errorf("end-to-end metric %s is a percentile", e.Name)
		}
	}
	for k, want := range map[string]float64{"wall_s": 8, "cpu_s": 16, "peak_rss_mb": 160} {
		if m[k].Value != want {
			t.Errorf("%s = %v, want %v", k, m[k].Value, want)
		}
	}
}

// A batch workload runs no daemon: its serve metrics, the latency
// percentiles among them, read 0 rather than NaN.
func TestBatchServeLayerReadsZero(t *testing.T) {
	m := map[string]metric{}
	serveLayer(m, nil)
	for _, l := range latencyMetrics {
		if v, ok := m[l.name]; !ok || v.Value != 0 {
			t.Errorf("%s = %v (present %v), want 0", l.name, v.Value, ok)
		}
	}
	for k, v := range m {
		if strings.HasPrefix(k, "serve.") && v.Value != 0 {
			t.Errorf("%s = %v on a batch workload", k, v.Value)
		}
	}
}

// At its offered rates serve-mix must stay well below saturation, so the
// latencies measure the program and not a queue on a busy host.
func TestServeMixBelowSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the daemon for three seconds")
	}
	if raceEnabled {
		t.Skip("the race detector slows the daemon several-fold; the load limit is for a normal build")
	}
	env, err := startServe("sat", serveDefault, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	r, err := runServe(context.Background(), env, 1, "sat", 3)
	if err != nil {
		t.Fatal(err)
	}
	if load, limit := r.cpu/r.wall, 0.6*float64(runtime.NumCPU()); load > limit {
		t.Fatalf("serve-mix used %.2f CPUs; want under %.2f (60%% of %d)", load, limit, runtime.NumCPU())
	}
	if r.backlogEnd != 0 {
		t.Fatalf("%d requests still queued when the schedule ended", r.backlogEnd)
	}
}

// Every reply of a serve phase is checked, and a correct daemon passes
// every check, the re-run sample of misses included.
func TestServePhaseChecksEveryReply(t *testing.T) {
	env, err := startServe("chk", serveDefault, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	r, err := runServe(context.Background(), env, 2, "chk", 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := hitRate + missRate + recheckMisses; r.attempted != want {
		t.Errorf("attempted %d, want %d", r.attempted, want)
	}
	if r.failed != 0 || r.recheckN != recheckMisses {
		t.Errorf("%d of %d failed; %d misses re-run", r.failed, r.attempted, r.recheckN)
	}
}

// The untraced half of a traced run has the daemon's telemetry off, so
// the overhead prices it; the traced half keeps every request's spans.
func TestServeModes(t *testing.T) {
	if !serveBare.config(1).DisableTelemetry || serveTraced.config(1).DisableTelemetry ||
		serveDefault.config(1) != (serve.Config{}) {
		t.Fatal("bare must turn telemetry off, traced and default keep it on, default is serve.Config{}")
	}
	hits, misses := schedule(0, "", 4)
	if got, want := serveTraced.config(4).SlowRequests, len(hits)+len(misses)+warmRequests; got != want {
		t.Fatalf("traced daemon keeps %d requests, want every one of %d", got, want)
	}
}

// A traced serve-mix phase averages the layers below serve over every
// scheduled miss, not the flight recorder's slowest few, and leaves the
// warm-up miss out.
func TestTracedServeLayersCoverEveryMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the daemon for two seconds")
	}
	const secs = 2
	env, err := startServe("lay", serveTraced, secs)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	r, err := runServe(context.Background(), env, 3, "lay", secs)
	if err != nil {
		t.Fatal(err)
	}
	p := &phaseOut{layers: newLayerSums(), serve: r}
	p.layerMetrics(map[string]metric{})
	if got, want := len(p.spans)-2, len(r.misses); got != want { // two lane entries follow the misses
		t.Fatalf("layers averaged over %d misses, want all %d", got, want)
	}
	for _, e := range p.spans[:len(r.misses)] {
		if e.Cache != "miss" {
			t.Fatalf("request %s (cache %q) counted as a miss", e.RequestID, e.Cache)
		}
	}
}

// peak_rss_mb is ru_maxrss, the peak of the whole process, so a process
// runs one workload only.
func TestOneWorkloadPerProcess(t *testing.T) {
	cfg := config{workload: "suite", setupOnly: true, root: ".."}
	if err := run(context.Background(), cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), cfg, io.Discard); err == nil {
		t.Fatal("a second workload ran in the same process")
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	h1, m1 := schedule(7, "t", 2)
	h2, m2 := schedule(7, "t", 2)
	h3, m3 := schedule(8, "t", 2)
	same := func(a, b []request) bool {
		for i := range a {
			if a[i].hit != b[i].hit || !bytes.Equal(a[i].body, b[i].body) || a[i].at != b[i].at {
				return false
			}
		}
		return len(a) == len(b)
	}
	if !same(h1, h2) || !same(m1, m2) {
		t.Fatal("one seed gave two schedules")
	}
	if same(h1, h3) || same(m1, m3) {
		t.Fatal("two seeds gave one schedule")
	}
	names := map[string]bool{}
	for _, m := range m1 {
		if names[m.name] {
			t.Fatalf("machine name %s repeats", m.name)
		}
		names[m.name] = true
	}
}

func TestServeChecks(t *testing.T) {
	e := &serveEnv{refs: [][]byte{[]byte("body")}}
	miss := request{hit: -1, name: "whatif-1"}
	for _, c := range []struct {
		r      request
		code   int
		xcache string
		body   string
		ok     bool
	}{
		{request{hit: 0}, 200, "hit", "body", true},
		{request{hit: 0}, 200, "hit", "bodx", false},
		{request{hit: 0}, 200, "miss", "body", false},
		{request{hit: 0}, 429, "", "body", false},
		{miss, 200, "miss", "EXT-MACHINE — Single-node probe suite on whatif-1\n", true},
		{miss, 200, "miss", "EXT-MACHINE — Single-node probe suite on whatif-10\n", false},
		{miss, 200, "hit", "EXT-MACHINE — Single-node probe suite on whatif-1\n", false},
	} {
		if got := e.check(c.r, c.code, c.xcache, []byte(c.body)); got != c.ok {
			t.Errorf("check(%+v, %d, %q, %q) = %v, want %v", c.r, c.code, c.xcache, c.body, got, c.ok)
		}
	}
}

func TestCountedCheckFollowsDiffRules(t *testing.T) {
	base := metrics.NewSnapshot(nil)
	base.Add("table4/000 j/ctr/flops", 100, metrics.Work, "flops")
	base.Add("fig3/000 j/makespan", 100, metrics.Time, "ns")
	base.Add("fig1/000 j/gflops", 100, metrics.Rate, "gflop/s")
	for _, c := range []struct {
		name string
		edit func(*metrics.Snapshot)
		bad  []string
	}{
		{"equal", func(*metrics.Snapshot) {}, nil},
		{"time within 1%", func(s *metrics.Snapshot) { s.Entries[1].Value = 100.5 }, nil},
		{"work moved", func(s *metrics.Snapshot) { s.Entries[0].Value = 101 }, []string{"table4"}},
		{"rate fell 2%", func(s *metrics.Snapshot) { s.Entries[2].Value = 98 }, []string{"fig1"}},
		{"time fell 2%", func(s *metrics.Snapshot) { s.Entries[1].Value = 98 }, []string{"fig3"}},
		{"rate rose 2%", func(s *metrics.Snapshot) { s.Entries[2].Value = 102 }, []string{"fig1"}},
		{"entry removed", func(s *metrics.Snapshot) { s.Entries = s.Entries[:2] }, []string{"fig1"}},
		{"entry added", func(s *metrics.Snapshot) { s.Add("table6/000 j/makespan", 1, metrics.Time, "ns") }, []string{"table6"}},
	} {
		snap := metrics.NewSnapshot(nil)
		snap.Entries = append(snap.Entries, base.Entries...)
		c.edit(snap)
		bad := badCountedIDs(base, snap)
		if len(bad) != len(c.bad) {
			t.Errorf("%s: bad ids %v, want %v", c.name, bad, c.bad)
		}
		for _, id := range c.bad {
			if !bad[id] {
				t.Errorf("%s: %s not flagged", c.name, id)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q            float64
		want         float64
		beyondTenOfN int
	}{{0.5, 5, 5}, {0.9, 9, 1}, {0.99, 10, 0}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := beyond(len(xs), c.q); got != c.beyondTenOfN {
			t.Errorf("beyond(10, %v) = %d, want %d", c.q, got, c.beyondTenOfN)
		}
	}
}
