package main

import (
	"math"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (ru_maxrss) in MB. The
// benchmark runs one workload per process, so this is that workload's
// peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// interval is one timed stretch: wall and process CPU seconds.
type interval struct{ wall, cpu float64 }

// stopwatch measures wall and CPU time from its start.
type stopwatch struct {
	t0   time.Time
	cpu0 float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

func (w stopwatch) stop() interval {
	return interval{time.Since(w.t0).Seconds(), cpuSeconds() - w.cpu0}
}

// settle collects the garbage of whatever ran before and returns the
// freed memory to the OS, so a timed stretch starts from a heap like a
// fresh process's and does not pay for an earlier pass's garbage.
func settle() { debug.FreeOSMemory() }

// refSink keeps the reference loop's result live.
var refSink float64

// refLoop times a fixed pure-Go integer and float loop that touches no
// memory. It reads the host, not the program: a slow ref loop next to a
// slow wall_s means a slow or busy host.
func refLoop() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var f float64
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f += float64(x >> 40)
	}
	refSink = f
	return time.Since(t0)
}
