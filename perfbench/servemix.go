package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"a64fxbench/internal/core"
	"a64fxbench/internal/serve"
	"a64fxbench/internal/sweep"
	"a64fxbench/internal/telemetry"
)

// Offered load of the open-loop serve traffic. At these rates the
// process stays near 40% of two cores, so a miss seldom queues behind
// another and the latencies measure the program, not a saturated host.
const (
	hitRate  = 500 // cache hits per second
	missRate = 20  // unique-digest executions per second
	// missOffset staggers the miss lane against the hit lane's ticks.
	missOffset = 13 * time.Millisecond
	// recheckMisses is how many misses per phase are re-run through
	// serve.WriteRun after the phase and compared byte for byte.
	recheckMisses = 12
)

// hitRequests are the six warmed bodies of the hit lane: run, sweep,
// counters, links and trace in several formats, all small, so a hit is
// decode, digest, cache lookup and write with the engine idle.
var hitRequests = []struct{ op, body string }{
	{"run", `{"ids":["table1"],"quick":true,"format":"json"}`},
	{"run", `{"ids":["table2"],"quick":true,"format":"chart"}`},
	{"sweep", `{"ids":["table2","table8"],"quick":true,"format":"csv"}`},
	{"counters", `{"ids":["table5"],"quick":true,"format":"json"}`},
	{"links", `{"ids":["table8"],"quick":true,"format":"text"}`},
	{"trace", `{"ids":["table5"],"quick":true,"format":"json"}`},
}

// missBody is a run of ext-machine on a fresh what-if overlay of A64FX:
// a new machine name, so a new digest, and a seeded memory bandwidth.
func missBody(name string, gbs float64) []byte {
	return []byte(fmt.Sprintf(`{"ids":["ext-machine"],"quick":true,"spec":{"base":"A64FX","name":%q,"node":{"domain_bandwidth":"%.3f GB/s"}}}`, name, gbs))
}

// request is one scheduled request of a lane.
type request struct {
	at   time.Duration // due time from the start of the schedule
	id   string        // sent as X-Request-ID, so the flight recorder can tell the lanes apart
	op   string
	hit  int // index into hitRequests; -1 for a miss
	name string
	body []byte
}

// schedule builds the two lanes of a serve phase of the given length.
// The seed picks the hit order and timing and the misses' bandwidths; tag keeps
// machine names unique across the phases of one process.
func schedule(seed int64, tag string, seconds float64) (hits, misses []request) {
	rng := rand.New(rand.NewSource(seed))
	hits = make([]request, int(hitRate*seconds))
	for i := range hits {
		// Each hit falls at a random point of its own slot, so hits
		// sample every offset into a concurrent miss's execution
		// instead of a fixed few; the rate stays exact.
		k := rng.Intn(len(hitRequests))
		slot := time.Second / hitRate
		hits[i] = request{at: time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot))),
			id: fmt.Sprintf("%s-hit-%d", tag, i), op: hitRequests[k].op, hit: k, body: []byte(hitRequests[k].body)}
	}
	misses = make([]request, int(missRate*seconds))
	for i := range misses {
		name := fmt.Sprintf("whatif-s%d-%s-%d", seed, tag, i)
		misses[i] = request{at: missOffset + time.Duration(i)*time.Second/missRate,
			id: fmt.Sprintf("%s-miss-%d", tag, i), op: "run", hit: -1, name: name, body: missBody(name, 160+160*rng.Float64())}
	}
	return hits, misses
}

// serveEnv is a serve daemon on a loopback listener with one client
// connection per lane, so a miss never blocks a hit at the client.
type serveEnv struct {
	srv         *serve.Server
	hs          *http.Server
	served      chan struct{}
	base        string
	hitC, missC *lane
	refs        [][]byte // warm-up body of each hit request
}

// lane is one persistent loopback connection. Its goroutine writes each
// request and reads the reply itself, with no transport goroutines
// between the generator and the socket, so the client adds as few
// wake-ups as it can to the latency it measures.
type lane struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialLane(addr string) (*lane, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &lane{conn: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}, nil
}

// serveMode is how the daemon of a serve phase is configured.
type serveMode int

const (
	// serveDefault is serve.Config{}, the daemon as users start it,
	// with its own request telemetry on: the end-to-end run.
	serveDefault serveMode = iota
	// serveBare turns the daemon's telemetry off: the untraced half of
	// a traced run.
	serveBare
	// serveTraced keeps the telemetry on and has the flight recorder
	// retain every request of the phase, so the layers below serve are
	// averaged over all misses and not only the slowest few: the traced
	// half of a traced run.
	serveTraced
)

// warmRequests is how many requests startServe sends before a phase.
var warmRequests = len(hitRequests) + 1

func (m serveMode) config(seconds float64) serve.Config {
	switch m {
	case serveBare:
		return serve.Config{DisableTelemetry: true}
	case serveTraced:
		hits, misses := schedule(0, "", seconds)
		return serve.Config{SlowRequests: len(hits) + len(misses) + warmRequests}
	}
	return serve.Config{}
}

// startServe brings up serve.New(cfg).Handler(), cfg as the mode gives it
// for a phase of `seconds`, and warms every hit body plus one miss, so
// the phase starts with a full cache and the execution path's lazy
// set-up done.
func startServe(tag string, mode serveMode, seconds float64) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(mode.config(seconds))
	e := &serveEnv{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}), base: "http://" + ln.Addr().String() + "/v1/"}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	if e.hitC, err = dialLane(ln.Addr().String()); err == nil {
		e.missC, err = dialLane(ln.Addr().String())
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	for k, h := range hitRequests {
		code, _, body, err := e.post(e.hitC, fmt.Sprintf("warm-%s-%d", tag, k), h.op, []byte(h.body))
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, body)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm %s %s: %w", h.op, h.body, err)
		}
		e.refs = append(e.refs, body)
	}
	code, _, body, err := e.post(e.missC, "warm-"+tag+"-miss", "run", missBody("warm-"+tag, 210))
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, body)
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warm miss: %w", err)
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.hs.Close()
	<-e.served
	for _, l := range []*lane{e.hitC, e.missC} {
		if l != nil {
			l.conn.Close()
		}
	}
}

func (e *serveEnv) post(l *lane, id, op string, body []byte) (code int, xcache string, out []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, e.base+op, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	if err = req.Write(l.w); err == nil {
		err = l.w.Flush()
	}
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := http.ReadResponse(l.r, req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), out, err
}

// sample is one completed request of a lane.
type sample struct {
	latMS  float64 // done minus due, less the generator's lag
	lateMS float64 // generator lag: sent minus the later of due and lane free
	sent   time.Duration
	done   time.Duration
	ok     bool
	xcache string
}

// runLane sends reqs in order, each at its due time or as soon as the
// previous reply is in, and checks every reply.
func (e *serveEnv) runLane(c *lane, reqs []request, t0 time.Time) ([]sample, [][]byte) {
	out := make([]sample, len(reqs))
	bodies := make([][]byte, len(reqs))
	free := time.Duration(0)
	for i, r := range reqs {
		if d := r.at - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		sent := time.Since(t0)
		code, xc, body, err := e.post(c, r.id, r.op, r.body)
		done := time.Since(t0)
		ready := r.at
		if free > ready {
			ready = free
		}
		free = done
		// Latency runs from the due time, so a reply that holds up the
		// lane delays the next request's latency too. The generator's
		// own wake-up lag is not the program's and is taken out; it is
		// reported on its own as gen.late_max_ms.
		late := sent - ready
		out[i] = sample{latMS: ms(done - r.at - late), lateMS: ms(late),
			sent: sent, done: done, xcache: xc,
			ok: err == nil && e.check(r, code, xc, body)}
		if r.hit < 0 {
			bodies[i] = body
		}
	}
	return out, bodies
}

// check validates one reply: a hit must come from the cache and equal
// its warm-up body byte for byte; a miss must have executed and render
// the probe suite on the request's own machine.
func (e *serveEnv) check(r request, code int, xcache string, body []byte) bool {
	if code != http.StatusOK {
		return false
	}
	if r.hit >= 0 {
		return xcache == "hit" && bytes.Equal(body, e.refs[r.hit])
	}
	return xcache == "miss" && bytes.Contains(body, []byte("suite on "+r.name+"\n"))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveRun is the outcome of one serve phase.
type serveRun struct {
	interval                          // schedule start to the last reply
	hitMS, missMS           []float64 // sorted latencies
	attempted, failed       int
	lateMaxMS               float64
	backlogEnd              int
	hitSamples, missSamples []sample
	hits, misses            []request
	srv                     *serve.Server
	recheckN, recheckBad    int
}

// runServe drives one open-loop phase of `seconds` against e and then
// re-runs a seeded sample of the misses through serve.WriteRun.
func runServe(ctx context.Context, e *serveEnv, seed int64, tag string, seconds float64) (*serveRun, error) {
	hits, misses := schedule(seed, tag, seconds)
	r := &serveRun{hits: hits, misses: misses, srv: e.srv}
	var missBodies [][]byte
	var wg sync.WaitGroup
	wg.Add(2)
	settle()
	w := startWatch()
	t0 := w.t0
	go func() { defer wg.Done(); r.hitSamples, _ = e.runLane(e.hitC, hits, t0) }()
	go func() { defer wg.Done(); r.missSamples, missBodies = e.runLane(e.missC, misses, t0) }()
	wg.Wait()
	r.interval = w.stop()

	end := time.Duration(seconds * float64(time.Second))
	for _, lane := range [][]sample{r.hitSamples, r.missSamples} {
		for _, s := range lane {
			r.attempted++
			if !s.ok {
				r.failed++
			}
			if s.lateMS > r.lateMaxMS {
				r.lateMaxMS = s.lateMS
			}
			if s.sent > end {
				r.backlogEnd++
			}
		}
	}
	r.hitMS = sortedLatencies(r.hitSamples)
	r.missMS = sortedLatencies(r.missSamples)

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, i := range rng.Perm(len(misses))[:min(recheckMisses, len(misses))] {
		r.recheckN++
		ok, err := recheck(ctx, misses[i], missBodies[i])
		if err != nil {
			return nil, err
		}
		if !ok {
			r.recheckBad++
		}
	}
	r.attempted += r.recheckN
	r.failed += r.recheckBad
	return r, nil
}

func sortedLatencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latMS
	}
	sort.Float64s(out)
	return out
}

// recheck re-runs a miss through the CLI's executor and compares the
// bytes with what the daemon served.
func recheck(ctx context.Context, r request, served []byte) (bool, error) {
	req, err := core.ParseRequest(r.body)
	if err != nil {
		return false, fmt.Errorf("recheck %s: %w", r.name, err)
	}
	var buf bytes.Buffer
	if err := serve.WriteRun(ctx, &buf, sweep.New(0), req); err != nil {
		return false, nil
	}
	return bytes.Equal(buf.Bytes(), served), nil
}

// latencyMetrics are the per-class percentiles, each with at least ten
// samples beyond it at the benchmark's run length (see the tests). They
// are per-layer metrics of serve-mix: on a shared host their run-to-run
// drift is wider than any bound an end-to-end metric may have.
var latencyMetrics = []struct {
	name string
	hit  bool
	q    float64
}{
	{"serve.hit_p50_ms", true, 0.50},
	{"serve.hit_p99_ms", true, 0.99},
	{"serve.miss_p50_ms", false, 0.50},
	{"serve.miss_p90_ms", false, 0.90},
}

// latencies are the sorted latencies of one class.
func (r *serveRun) latencies(hit bool) []float64 {
	if hit {
		return r.hitMS
	}
	return r.missMS
}

// spanEntries turns the lanes' client-side request spans into one
// telemetry entry per lane, for the Chrome span file.
func (r *serveRun) spanEntries(tag string) []*telemetry.Entry {
	var out []*telemetry.Entry
	for _, lane := range []struct {
		name string
		reqs []request
		ss   []sample
	}{{"hit", r.hits, r.hitSamples}, {"miss", r.misses, r.missSamples}} {
		root := &telemetry.SpanNode{Name: "lane:" + lane.name}
		for i, s := range lane.ss {
			root.Children = append(root.Children, &telemetry.SpanNode{
				Name: "POST /v1/" + lane.reqs[i].op, StartNS: int64(s.sent),
				DurationNS: int64(s.done - s.sent),
				Attrs:      map[string]any{"x-cache": s.xcache, "due_ns": int64(lane.reqs[i].at)}})
			if d := int64(s.done); d > root.DurationNS {
				root.DurationNS = d
			}
		}
		out = append(out, &telemetry.Entry{RequestID: tag + "-" + lane.name, Op: "lane:" + lane.name,
			Status: http.StatusOK, DurationMS: float64(root.DurationNS) / 1e6, Spans: root})
	}
	return out
}
