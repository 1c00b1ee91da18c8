package simmpi

// Allocation guard for message matching: a steady-state ping-pong
// exchange must not allocate per message. The engine's arena-backed
// route queues (event.go) reuse their backing arrays, and the token
// handoff reuses each rank's resume channel; these tests pin that.

import (
	"runtime"
	"testing"
)

// pingPongMallocs runs a 2-rank ping-pong of iters round trips and
// returns the process malloc count it took. The payload slice's
// ownership round-trips, so a leak-free runtime allocates only job
// setup, not per-iteration state.
func pingPongMallocs(t *testing.T, iters int) uint64 {
	t.Helper()
	c := cfg(2, 1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(c, func(r *Rank) error {
		buf := make([]float64, 64)
		for i := 0; i < iters; i++ {
			if r.ID() == 0 {
				r.SendFloats(1, 7, buf)
				buf = r.RecvFloats(1, 9)
			} else {
				buf = r.RecvFloats(0, 7)
				r.SendFloats(0, 9, buf)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPingPongAllocGuard pins steady-state allocations per ping-pong
// round trip. Differencing a long run against a short one cancels the
// fixed job-setup allocations; the bound is deliberately loose against
// incidental runtime allocations but far below one alloc per message —
// the regression this guards against (per-route channels, per-message
// boxes) costs hundreds per thousand round trips.
func TestPingPongAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per channel operation")
	}
	// The subtest keeps the name of the engine it has always guarded, so
	// its results stay comparable with earlier runs.
	t.Run("event", func(t *testing.T) {
		const short, long = 200, 5200
		base := pingPongMallocs(t, short)
		full := pingPongMallocs(t, long)
		var extra uint64
		if full > base {
			extra = full - base
		}
		perK := float64(extra) / float64(long-short) * 1000
		t.Logf("%d extra mallocs over %d round trips (%.1f per 1000)", extra, long-short, perK)
		if perK > 100 { // 0.1 allocs per round trip
			t.Fatalf("engine allocates %.1f times per 1000 ping-pong round trips; route queues are leaking again", perK)
		}
	})
}

// BenchmarkMailboxPingPong reports ns and allocs per ping-pong round
// trip (allocs/op is the headline: it must be ~0). Each round trip is
// two token handoffs, so ns/op is twice the engine's switch cost.
func BenchmarkMailboxPingPong(b *testing.B) {
	b.ReportAllocs()
	_, err := Run(cfg(2, 1), func(r *Rank) error {
		buf := make([]float64, 64)
		for i := 0; i < b.N; i++ {
			if r.ID() == 0 {
				r.SendFloats(1, 7, buf)
				buf = r.RecvFloats(1, 9)
			} else {
				buf = r.RecvFloats(0, 7)
				r.SendFloats(0, 9, buf)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
