package simmpi

// The differential suite: every observable output of a job — the full
// Report (per-rank clocks, stats, counters, link heatmaps) and the
// merged trace timeline — must be byte-identical between the
// discrete-event engine and the reference runtime (reference_test.go),
// for every communication pattern and option combination. The suite
// also asserts collective RESULTS (not just times) inside the bodies,
// so the engine's batched data path is checked against ground truth,
// not merely against the oracle.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"a64fxbench/internal/metrics"
	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/units"
)

// reportDigest reduces a report plus its trace to a comparable hex
// string. JSON is canonical here: all slices, and Go marshals map keys
// sorted.
func reportDigest(t *testing.T, rep Report, tl Timeline) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(rep); err != nil {
		t.Fatalf("encode report: %v", err)
	}
	if err := enc.Encode(tl); err != nil {
		t.Fatalf("encode timeline: %v", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runDigest executes one job under run and digests it.
func runDigest(t *testing.T, c JobConfig, name string, run func(JobConfig, func(*Rank) error) (Report, error), traced bool, body func(*Rank) error) (Report, string) {
	t.Helper()
	var sink *MemorySink
	if traced {
		sink = &MemorySink{}
		c.Sink = sink
	}
	rep, err := run(c, body)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var tl Timeline
	if sink != nil {
		tl = sink.Events
		if len(tl) == 0 {
			t.Fatalf("%s: traced run produced no events", name)
		}
	}
	return rep, reportDigest(t, rep, tl)
}

// assertEngineEquivalent runs body under the engine and the reference
// runtime and demands byte-identical digests.
func assertEngineEquivalent(t *testing.T, c JobConfig, traced bool, body func(*Rank) error) {
	t.Helper()
	repR, digR := runDigest(t, c, "reference", runRef, traced, body)
	repE, digE := runDigest(t, c, "event", Run, traced, body)
	if digR != digE {
		t.Fatalf("engine diverged from the reference:\n reference makespan=%v msgs=%d bytes=%v\n event     makespan=%v msgs=%d bytes=%v",
			repR.Makespan, repR.TotalMsgs, repR.TotalBytesSent,
			repE.Makespan, repE.TotalMsgs, repE.TotalBytesSent)
	}
	if repR.Makespan <= 0 && repR.TotalMsgs > 0 {
		t.Fatal("degenerate job: messages moved but no time passed")
	}
}

// engineBodies is the pattern library of the differential suite. Every
// body self-checks its collective results; p is the job size it runs at.
var engineBodies = []struct {
	name string
	min  int // smallest p the body supports
	body func(r *Rank) error
}{
	{"compute-pingpong", 2, func(r *Rank) error {
		w := vecWork(1000 + 100*r.ID())
		for it := 0; it < 3; it++ {
			r.Compute(w)
			partner := r.ID() ^ 1
			if partner < r.Size() {
				if r.ID()&1 == 0 {
					r.SendFloats(partner, 7, []float64{float64(r.ID()), float64(it)})
					got := r.RecvFloats(partner, 8)
					if got[0] != float64(partner) {
						return fmt.Errorf("pingpong got %v", got)
					}
				} else {
					got := r.RecvFloats(partner, 7)
					if got[1] != float64(it) {
						return fmt.Errorf("pingpong it %v", got)
					}
					r.SendFloats(partner, 8, []float64{float64(r.ID())})
				}
			}
		}
		return nil
	}},
	{"all-collectives", 1, func(r *Rank) error {
		p := float64(r.Size())
		r.Compute(vecWork(500 * (1 + r.ID()%3)))
		r.Barrier()
		// Allreduce: sum of rank ids.
		buf := []float64{float64(r.ID()), 1}
		r.Allreduce(buf, OpSum)
		if want := p * (p - 1) / 2; buf[0] != want || buf[1] != p {
			return fmt.Errorf("allreduce got %v", buf)
		}
		// Bcast from a non-zero root.
		root := r.Size() / 2
		var payload []float64
		if r.ID() == root {
			payload = []float64{3.25, -1}
		} else {
			payload = []float64{0, 0}
		}
		payload = r.Bcast(root, payload)
		if payload[0] != 3.25 {
			return fmt.Errorf("bcast got %v", payload)
		}
		// Reduce onto a non-zero root.
		rbuf := []float64{1}
		r.Reduce(root, rbuf, OpSum)
		if r.ID() == root && rbuf[0] != p {
			return fmt.Errorf("reduce got %v", rbuf)
		}
		// Allgather.
		gathered := r.Allgather([]float64{float64(10 * r.ID())})
		for i, v := range gathered {
			if v != float64(10*i) {
				return fmt.Errorf("allgather[%d] = %v", i, v)
			}
		}
		// Alltoall.
		send := make([][]float64, r.Size())
		for i := range send {
			send[i] = []float64{float64(r.ID()*100 + i)}
		}
		recv := r.Alltoall(send)
		for i, blk := range recv {
			if blk[0] != float64(i*100+r.ID()) {
				return fmt.Errorf("alltoall[%d] = %v", i, blk)
			}
		}
		// ReduceScatter: block i = p * i-th element.
		rs := make([]float64, r.Size()*2)
		for i := range rs {
			rs[i] = float64(i)
		}
		mine := r.ReduceScatter(rs, OpSum)
		if mine[0] != p*float64(2*r.ID()) || mine[1] != p*float64(2*r.ID()+1) {
			return fmt.Errorf("reducescatter got %v", mine)
		}
		// ExScan: prefix sum of rank ids.
		ex := r.ExScan([]float64{float64(r.ID())}, OpSum)
		id := float64(r.ID())
		if want := id * (id - 1) / 2; ex[0] != want {
			return fmt.Errorf("exscan got %v want %v", ex, want)
		}
		r.Elapse(3 * units.Microsecond)
		return nil
	}},
	{"comm-split", 2, func(r *Rank) error {
		c := r.Split(r.ID()%2, -r.ID())
		if got := c.AllreduceScalar(1, OpSum); got != float64(c.Size()) {
			return fmt.Errorf("split allreduce got %v", got)
		}
		c.Barrier()
		// Second split with a different shape; key reverses the order.
		c2 := r.Split(r.ID()%3, 0)
		if got := c2.AllreduceScalar(float64(r.ID()), OpMax); got < float64(r.ID()) {
			return fmt.Errorf("split2 max got %v", got)
		}
		return nil
	}},
	{"ring-sendrecv", 2, func(r *Rank) error {
		p := r.Size()
		data := []float64{float64(r.ID())}
		for step := 0; step < p; step++ {
			right := (r.ID() + 1) % p
			left := (r.ID() - 1 + p) % p
			r.SendFloats(right, 40+step, data)
			data = r.RecvFloats(left, 40+step)
			r.Compute(vecWork(200))
		}
		if data[0] != float64(r.ID()) {
			return fmt.Errorf("ring ended with %v", data)
		}
		return nil
	}},
	{"imbalanced-collective", 2, func(r *Rank) error {
		// Heavily skewed compute so ranks hit the collective at very
		// different virtual times.
		r.Compute(vecWork(100 * (1 + r.ID()*r.ID())))
		v := r.AllreduceScalar(float64(r.ID()), OpMax)
		if v != float64(r.Size()-1) {
			return fmt.Errorf("max got %v", v)
		}
		r.Barrier()
		return nil
	}},
	{"many-to-one", 2, func(r *Rank) error {
		if r.ID() == 0 {
			for src := 1; src < r.Size(); src++ {
				got := r.RecvFloats(src, 9)
				if got[0] != float64(src) {
					return fmt.Errorf("gathered %v from %d", got, src)
				}
			}
		} else {
			r.Compute(vecWork(300 * r.ID()))
			r.SendFloats(0, 9, []float64{float64(r.ID())})
		}
		return nil
	}},
}

// engineSizes covers the algorithmic corner cases: 1 (no-op
// collectives), powers of two, non-powers of two (allreduce folding,
// alltoall rotation, reduce-scatter's nested reduce), and a multi-node
// spread.
var engineSizes = []struct {
	procs, nodes int
}{
	{1, 1}, {2, 1}, {3, 1}, {4, 2}, {5, 2}, {7, 3}, {8, 4}, {12, 4},
}

func TestEngineEquivalence(t *testing.T) {
	t.Parallel()
	for _, b := range engineBodies {
		for _, sz := range engineSizes {
			if sz.procs < b.min {
				continue
			}
			t.Run(fmt.Sprintf("%s/p%d_n%d", b.name, sz.procs, sz.nodes), func(t *testing.T) {
				t.Parallel()
				assertEngineEquivalent(t, cfg(sz.procs, sz.nodes), true, b.body)
			})
		}
	}
}

// TestEngineEquivalenceOptions crosses one rich body with the full
// option matrix: tracing, counters, congestion, noise, and all at once.
func TestEngineEquivalenceOptions(t *testing.T) {
	t.Parallel()
	body := engineBodies[1].body // all-collectives
	opts := []struct {
		name   string
		mutate func(*JobConfig)
		traced bool
	}{
		{"plain", func(*JobConfig) {}, false},
		{"trace", func(*JobConfig) {}, true},
		{"counters", func(c *JobConfig) {
			c.Counters = &metrics.Config{Period: 20 * units.Microsecond, MaxSamples: 16}
		}, false},
		{"congestion", func(c *JobConfig) { c.Congestion = true }, false},
		{"noise", func(c *JobConfig) {
			c.NoiseProb = 0.3
			c.NoiseDuration = 5 * units.Microsecond
		}, false},
		{"everything", func(c *JobConfig) {
			c.Counters = &metrics.Config{Period: 20 * units.Microsecond, MaxSamples: 16}
			c.Congestion = true
			c.NoiseProb = 0.2
			c.NoiseDuration = 2 * units.Microsecond
		}, true},
	}
	for _, o := range opts {
		for _, sz := range []struct{ procs, nodes int }{{6, 2}, {8, 4}} {
			t.Run(fmt.Sprintf("%s/p%d_n%d", o.name, sz.procs, sz.nodes), func(t *testing.T) {
				t.Parallel()
				c := cfg(sz.procs, sz.nodes)
				o.mutate(&c)
				assertEngineEquivalent(t, c, o.traced, body)
			})
		}
	}
}

// vecWork builds a small deterministic compute phase scaled by n.
func vecWork(n int) perfmodel.WorkProfile {
	return perfmodel.WorkProfile{
		Class: perfmodel.VectorOp,
		Flops: units.Flops(n) * units.KFlop,
		Bytes: units.Bytes(n) * 64,
	}
}

// TestEventEngineErrorPropagation: a failing rank must surface its
// error instead of hanging the loop, including when the other ranks are
// already parked in a collective the failed rank will never join.
func TestEventEngineErrorPropagation(t *testing.T) {
	t.Parallel()
	c := cfg(4, 2)
	boom := fmt.Errorf("rank 2 gave up")
	_, err := Run(c, func(r *Rank) error {
		if r.ID() == 2 {
			return boom
		}
		r.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("want rank error, got %v", err)
	}
	// Panics become errors too.
	_, err = Run(c, func(r *Rank) error {
		if r.ID() == 1 {
			panic("kaboom")
		}
		r.AllreduceScalar(1, OpSum)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic error, got %v", err)
	}
}

// TestEventEngineDeadlockDetection: a receive that can never be matched
// must produce a diagnostic, not a hang (a goroutine-per-rank runtime
// such as the reference hangs forever on the same program).
func TestEventEngineDeadlockDetection(t *testing.T) {
	t.Parallel()
	c := cfg(2, 1)
	_, err := Run(c, func(r *Rank) error {
		if r.ID() == 0 {
			r.Recv(1, 99) // never sent
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	// Mismatched collectives are a loud panic-turned-error.
	_, err = Run(c, func(r *Rank) error {
		if r.ID() == 0 {
			r.Barrier()
		} else {
			r.AllreduceScalar(1, OpSum)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
		t.Fatalf("want collective mismatch, got %v", err)
	}
}

// TestEngineValidation: misuse that a goroutine-per-rank runtime would
// hang on or silently mis-route is a loud error from the engine — a tag
// beyond the route key's 32 bits, and a rooted collective whose ranks
// disagree on the root (detected by the batched executor, which runs
// inside a rank's handoff).
func TestEngineValidation(t *testing.T) {
	t.Parallel()
	_, err := Run(cfg(2, 1), func(r *Rank) error {
		if r.ID() == 0 {
			r.SendFloats(1, 1<<33, []float64{1})
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "32-bit tag space") {
		t.Fatalf("want tag-overflow error, got %v", err)
	}
	_, err = Run(cfg(4, 2), func(r *Rank) error {
		r.Bcast(r.ID()%2, []float64{1})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "root mismatch") {
		t.Fatalf("want root-mismatch error, got %v", err)
	}
}

// TestEngineAbortLeaksNoGoroutines: after a deadlock abort and after a
// rank-error abort, every parked rank goroutine has unwound, so the
// process goroutine count returns to where it started.
func TestEngineAbortLeaksNoGoroutines(t *testing.T) {
	// Not parallel: other tests' goroutines would skew the count.
	bodies := map[string]func(*Rank) error{
		"deadlock": func(r *Rank) error {
			if r.ID()%3 == 0 {
				r.Recv((r.ID()+1)%r.Size(), 99) // never sent
			}
			r.Compute(vecWork(10))
			return nil
		},
		"rank error": func(r *Rank) error {
			if r.ID() == 5 {
				return fmt.Errorf("rank 5 gave up")
			}
			r.Barrier()
			return nil
		},
		"root mismatch": func(r *Rank) error {
			r.Reduce(r.ID()%2, []float64{1}, OpSum) // panics in the handoff
			return nil
		},
		"split deadlock": func(r *Rank) error {
			if r.ID() == 0 {
				return nil // never joins the Split
			}
			r.Split(0, 0)
			return nil
		},
	}
	for name, body := range bodies {
		before := runtime.NumGoroutine()
		if _, err := Run(cfg(12, 4), body); err == nil {
			t.Fatalf("%s: want an abort error", name)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the abort, %d before", name, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// FuzzEngineEquivalence fuzzes the job shape — rank count, node count,
// message size, noise seed/probability, compute skew — and asserts the
// engine stays byte-identical to the reference runtime.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(64), uint8(0), uint8(1))
	f.Add(uint8(7), uint8(3), uint16(1), uint8(50), uint8(3))
	f.Add(uint8(1), uint8(1), uint16(512), uint8(10), uint8(0))
	f.Add(uint8(16), uint8(4), uint16(100), uint8(90), uint8(7))
	f.Fuzz(func(t *testing.T, procs, nodes uint8, msgLen uint16, noise, skew uint8) {
		p := int(procs)%24 + 1
		n := int(nodes)%8 + 1
		if n > p {
			n = p
		}
		c := cfg(p, n)
		c.NoiseProb = float64(noise%101) / 100
		c.NoiseDuration = units.Microsecond
		ml := int(msgLen)%1024 + 1
		body := func(r *Rank) error {
			r.Compute(vecWork(100 * (1 + r.ID()%(int(skew)+1))))
			buf := make([]float64, ml)
			for i := range buf {
				buf[i] = float64(r.ID()*ml + i)
			}
			r.Allreduce(buf, OpSum)
			if p > 1 {
				partner := (r.ID() + p/2) % p
				r.SendFloats(partner, 5, buf[:1+ml/2])
				r.RecvFloats((r.ID()-p/2+p)%p, 5)
			}
			r.Barrier()
			return nil
		}
		assertEngineEquivalent(t, c, true, body)
	})
}

// TestEnginePriceMemoMatchesModel pins the memoised pricing to the
// model it caches: same hops and bytes must return the identical bits.
func TestEnginePriceMemoMatchesModel(t *testing.T) {
	t.Parallel()
	c := cfg(4, 4)
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	e := &eventEngine{j: &job{cfg: c}, prices: map[uint64]units.Duration{}}
	for _, pair := range [][2]int{{0, 0}, {0, 1}, {0, 3}, {2, 1}, {1, 2}} {
		for _, bytes := range []units.Bytes{0, 8, 4096} {
			want := c.Fabric.PointToPoint(pair[0], pair[1], bytes)
			if got := e.price(pair[0], pair[1], bytes); got != want {
				t.Fatalf("price(%v, %d) = %v, model %v", pair, bytes, got, want)
			}
			// Second call exercises the cache hit.
			if got := e.price(pair[0], pair[1], bytes); got != want {
				t.Fatalf("cached price(%v, %d) = %v, model %v", pair, bytes, got, want)
			}
		}
	}
}
