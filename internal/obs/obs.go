// Package obs is the observability layer over the simmpi runtime: it
// consumes traced event timelines (via simmpi.TraceSink) and turns them
// into analyses the paper's methodology rests on — Chrome/Perfetto trace
// files, rank×rank communication matrices, per-kernel-class roofline
// utilization, and critical-path analysis over the send/recv
// happens-before DAG.
//
// The package is strictly an event consumer: it never touches the
// virtual clocks, so every analysis is observationally neutral to the
// simulation and byte-deterministic for a given job.
package obs

import (
	"a64fxbench/internal/simmpi"
	"a64fxbench/internal/units"
	"a64fxbench/internal/vclock"
)

// JobTrace is the event log of one simulated job, extracted from a
// sink's stream. Events hold only rank-recorded entries (no job
// markers), merged in deterministic (Start, Rank) order with each rank's
// program order preserved.
type JobTrace struct {
	// Label is the job's name from its EvJobBegin marker.
	Label string
	// Makespan is the job runtime from its EvJobEnd marker (or the
	// latest event finish when the stream was truncated).
	Makespan units.Duration
	// Events is the merged per-rank event log.
	Events simmpi.Timeline
}

// NumRanks reports the number of ranks observed in the trace.
func (jt *JobTrace) NumRanks() int {
	n := 0
	for _, e := range jt.Events {
		if e.Rank >= n {
			n = e.Rank + 1
		}
	}
	return n
}

// NodeOf reconstructs the rank→node placement from the events (every
// event carries its recorder's node index).
func (jt *JobTrace) NodeOf() []int {
	nodes := make([]int, jt.NumRanks())
	for _, e := range jt.Events {
		if e.Rank >= 0 {
			nodes[e.Rank] = e.Node
		}
	}
	return nodes
}

// NumNodes reports the number of distinct nodes observed in the trace.
func (jt *JobTrace) NumNodes() int {
	n := 0
	for _, node := range jt.NodeOf() {
		if node >= n {
			n = node + 1
		}
	}
	return n
}

// SplitJobs partitions a sink's event stream into per-job traces using
// the EvJobBegin/EvJobEnd markers the runtime emits around each job.
// Events outside any marker pair (possible only with hand-built
// streams) open an implicit unlabelled job. A job's events are
// contiguous in the stream, so each JobTrace.Events is a sub-slice of
// tl, capped so an append copies instead of overwriting the stream;
// splitting copies no event.
func SplitJobs(tl simmpi.Timeline) []JobTrace {
	var jobs []JobTrace
	open, start := false, 0
	closeJob := func(end int) {
		if open && end > start {
			jobs[len(jobs)-1].Events = tl[start:end:end]
		}
		open = false
	}
	for i, e := range tl {
		switch e.Kind {
		case simmpi.EvJobBegin:
			closeJob(i)
			jobs = append(jobs, JobTrace{Label: e.Name})
			open, start = true, i+1
		case simmpi.EvJobEnd:
			if open {
				jobs[len(jobs)-1].Makespan = e.Duration
				closeJob(i)
			}
		default:
			if !open {
				jobs = append(jobs, JobTrace{})
				open, start = true, i
			}
		}
	}
	closeJob(len(tl))
	// Truncated stream (no EvJobEnd): derive the makespan from events.
	for i := range jobs {
		if jobs[i].Makespan == 0 {
			var last vclock.Time
			for _, e := range jobs[i].Events {
				if f := e.Finish(); f > last {
					last = f
				}
			}
			jobs[i].Makespan = units.Duration(last)
		}
	}
	return jobs
}
