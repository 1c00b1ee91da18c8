package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"a64fxbench/internal/arch"
	"a64fxbench/internal/hpcg"
)

// engineBenchNodes fixes the benchmark scenario so snapshots taken on
// different days are comparable: 86 nodes × 48 cores = 4128 ranks, just
// above the 4096-rank floor the engine's throughput is quoted at. The
// scenario itself is hpcg.EngineScaleConfig.
const engineBenchNodes = 86

// engineBenchProcs are the GOMAXPROCS settings measured, one row each.
// The engine is single-threaded, so a second thread buys it nothing;
// the GOMAXPROCS=2 row prices the token handoff when the Go scheduler
// can move rank goroutines between two OS threads.
var engineBenchProcs = []int{1, 2}

// engineBenchRow is one GOMAXPROCS setting's measurement. Score — the
// simulated ranks per second times the seconds hpcg.RefLoop takes in
// the same process — is what the gate compares: wall times track the
// host, but the host's speed cancels out of the product.
type engineBenchRow struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Ranks       int     `json:"ranks"`
	Msgs        int64   `json:"msgs"`
	MakespanNS  int64   `json:"makespan_ns"`
	WallMS      float64 `json:"wall_ms"`
	RanksPerSec float64 `json:"ranks_per_sec"`
	RefLoopMS   float64 `json:"ref_loop_ms"`
	Score       float64 `json:"score"`
}

// engineBenchSnapshot is the BENCH_engine.json schema. Rows is the
// gated measurement. Before, when present, records the same
// measurement of the code a re-baseline replaced, each set with a note
// saying what that code was; the gate never reads it.
type engineBenchSnapshot struct {
	Scenario string            `json:"scenario"`
	Rows     []engineBenchRow  `json:"rows"`
	Before   []engineBenchPrev `json:"before,omitempty"`
}

type engineBenchPrev struct {
	Note string           `json:"note"`
	Rows []engineBenchRow `json:"rows"`
}

// engineBenchTol is the allowed fractional drop in a row's score versus
// the committed baseline before the gate fails.
const engineBenchTol = 0.15

// engineBenchReps is how many times each row runs the scenario, each
// run paired with a reference-loop run just before it and started after
// a garbage collection; the fastest of each counts. Minimum-of-N
// discards scheduler, GC and neighbour interference, which otherwise
// dwarfs real regressions in a sub-second measurement.
const engineBenchReps = 5

// enginebenchCmd runs the weak-scaled HPCG scenario at each
// GOMAXPROCS setting and reports simulated ranks/sec, normalised by the
// in-process reference loop. With a baseline snapshot argument it
// becomes the CI regression gate: every row must reproduce the
// baseline's simulated outcome exactly, and its score must not fall
// more than 15% below the baseline row's. -o writes the new snapshot
// (the file CI uploads and, when re-baselining, commits).
func enginebenchCmd(cfg sweepConfig, args []string) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sys := arch.MustGet(arch.A64FX)
	snap := engineBenchSnapshot{
		Scenario: fmt.Sprintf("hpcg weak-scaled, %d nodes (%d ranks), a64fx",
			engineBenchNodes, engineBenchNodes*sys.CoresPerNode()),
	}
	for _, procs := range engineBenchProcs {
		runtime.GOMAXPROCS(procs)
		var res hpcg.Result
		var wall, ref time.Duration
		for rep := 0; rep < engineBenchReps; rep++ {
			if d := hpcg.RefLoop(); rep == 0 || d < ref {
				ref = d
			}
			runtime.GC()
			start := time.Now()
			r, err := hpcg.Run(hpcg.EngineScaleConfig(sys, engineBenchNodes))
			if err != nil {
				return fmt.Errorf("enginebench: GOMAXPROCS=%d: %w", procs, err)
			}
			if w := time.Since(start); rep == 0 || w < wall {
				res, wall = r, w
			}
		}
		rps := float64(res.Procs) / wall.Seconds()
		snap.Rows = append(snap.Rows, engineBenchRow{
			GOMAXPROCS:  procs,
			Ranks:       res.Procs,
			Msgs:        res.Report.TotalMsgs,
			MakespanNS:  int64(res.Report.Makespan),
			WallMS:      math.Round(wall.Seconds()*1e5) / 100,
			RanksPerSec: math.Round(rps),
			RefLoopMS:   math.Round(ref.Seconds()*1e5) / 100,
			Score:       math.Round(rps*ref.Seconds()*10) / 10,
		})
	}

	if err := withOutput(cfg, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}); err != nil {
		return err
	}
	for _, r := range snap.Rows {
		fmt.Fprintf(os.Stderr, "enginebench: GOMAXPROCS=%d %d ranks, %d msgs: %.1fms (%.0f ranks/s), ref loop %.2fms: score %.1f\n",
			r.GOMAXPROCS, r.Ranks, r.Msgs, r.WallMS, r.RanksPerSec, r.RefLoopMS, r.Score)
	}

	if len(args) == 0 {
		return nil
	}
	base, err := loadEngineBaseline(args[0])
	if err != nil {
		return err
	}
	if base.Scenario != snap.Scenario {
		return fmt.Errorf("enginebench: baseline scenario %q does not match %q; re-baseline with -o %s",
			base.Scenario, snap.Scenario, args[0])
	}
	for _, r := range snap.Rows {
		b, ok := baselineRow(base, r.GOMAXPROCS)
		if !ok {
			return fmt.Errorf("enginebench: baseline %s has no GOMAXPROCS=%d row", args[0], r.GOMAXPROCS)
		}
		if r.Msgs != b.Msgs || r.MakespanNS != b.MakespanNS {
			return fmt.Errorf("enginebench: GOMAXPROCS=%d simulated %d msgs over %dns, baseline %d msgs over %dns",
				r.GOMAXPROCS, r.Msgs, r.MakespanNS, b.Msgs, b.MakespanNS)
		}
		floor := b.Score * (1 - engineBenchTol)
		if r.Score < floor {
			return fmt.Errorf("enginebench: GOMAXPROCS=%d score regressed to %.1f, baseline %.1f (floor %.1f)",
				r.GOMAXPROCS, r.Score, b.Score, floor)
		}
		fmt.Fprintf(os.Stderr, "enginebench: GOMAXPROCS=%d within baseline (%.1f ≥ %.1f floor)\n", r.GOMAXPROCS, r.Score, floor)
	}
	return nil
}

// baselineRow finds the baseline's row for a GOMAXPROCS setting.
func baselineRow(s engineBenchSnapshot, procs int) (engineBenchRow, bool) {
	for _, r := range s.Rows {
		if r.GOMAXPROCS == procs {
			return r, true
		}
	}
	return engineBenchRow{}, false
}

func loadEngineBaseline(path string) (engineBenchSnapshot, error) {
	var s engineBenchSnapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("enginebench: reading baseline: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("enginebench: parsing baseline %s: %w", path, err)
	}
	for _, r := range s.Rows {
		if r.Score <= 0 {
			return s, fmt.Errorf("enginebench: baseline %s has a row without a score", path)
		}
	}
	if len(s.Rows) == 0 {
		return s, fmt.Errorf("enginebench: baseline %s has no rows", path)
	}
	return s, nil
}
