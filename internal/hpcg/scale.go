package hpcg

import (
	"runtime"
	"time"

	"a64fxbench/internal/arch"
)

// EngineScaleConfig is the weak-scaled engine-benchmark scenario: the
// metered HPCG CG loop with a deliberately tiny 8³ local problem and a
// shallow V-cycle, so runtime cost is dominated by the simulation
// engine (events, token handoffs, collectives) rather than by work
// metering. One rank per core, as everywhere else; on the A64FX model
// 2084 nodes yields the 100k-rank smoke scenario (100,032 ranks).
//
// The same scenario backs BenchmarkEngineRanksPerSec, the scale smoke
// tests, and the `a64fxbench enginebench` CI gate, so the recorded
// ranks/sec numbers are comparable across all three.
func EngineScaleConfig(sys *arch.System, nodes int) Config {
	return Config{
		System: sys, Nodes: nodes,
		NX: 8, NY: 8, NZ: 8,
		Levels:     2,
		Iterations: 2,
	}
}

// ScaleSmokeNodes is the node count of the 100k-rank smoke scenario on
// the A64FX model: 2084 nodes × 48 cores = 100,032 ranks.
const ScaleSmokeNodes = 2084

// refMask sizes RefLoop's table: 1 MiB, beyond L1 but within the L2
// or L3 of any current host, as the engine's heap and route tables are
// at the scale scenario's sizes.
const refMask = 1<<17 - 1

// RefLoop times one run of a fixed in-process reference workload,
// started after a garbage collection so no earlier allocation's GC work
// lands inside it. Engine throughput multiplied by this time (ranks/s ×
// RefLoop seconds) is a host-independent score: both scale with the
// host's integer speed and cache latency. Callers interleave RefLoop
// runs with the runs they normalise, so both see the same host load.
// The loop is a xorshift stream that reads and updates a table at
// pseudo-random indices — dependent loads and unpredictable branches,
// like the engine's heap and map work.
func RefLoop() time.Duration {
	table := make([]uint64, refMask+1)
	runtime.GC()
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 8_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[(x^table[x&refMask])&refMask] += x
	}
	return time.Since(start)
}
