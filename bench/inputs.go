package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/runstore"
)

// expName is the synthetic experiment every workload's records belong to.
const expName = "journey"

// runnerSpin sizes the runner's fixed arithmetic to ≈5 µs on the sizing
// machine: small against the ≈180 µs append it precedes, large enough
// that harness.runner_busy_s is not timer noise.
const runnerSpin = 2500

// mix folds its arguments into one well-spread 64-bit value (splitmix64
// finalizer per argument). Every generated input is mix(seed, ...), so a
// seed fixes every byte the product code sees.
func mix(vs ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, v := range vs {
		h += v + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// cellLevel is the level name of cell i of the single `cell` factor.
func cellLevel(i int) string { return fmt.Sprintf("c%05d", i) }

// responses is the pure function (seed, run, cell, replicate) → the two
// response values. run distinguishes the accumulated runs of the
// warehouse workload; every other workload uses run 0. drift shifts ms
// upward so a later run can regress against an earlier one.
func responses(seed uint64, run, cell, rep int, drift float64) map[string]float64 {
	h := mix(seed, uint64(run), uint64(cell), uint64(rep))
	// The cell sets the level, the replicate adds ±2 % noise: replicates
	// of one cell agree closely enough for confidence intervals to mean
	// something, cells differ enough for histories to be distinguishable.
	base := 5 + 95*unit(mix(seed, uint64(cell)))
	ms := base * (1 + drift) * (0.98 + 0.04*unit(h))
	return map[string]float64{
		"ms": math.Round(ms*1000) / 1000,
		"io": float64(100 + mix(h)%900),
	}
}

// record builds the record the scheduler would journal for one unit.
func record(seed uint64, run, cell, rep int, drift float64) runstore.Record {
	return runstore.Record{
		Experiment: expName,
		Row:        cell,
		Replicate:  rep,
		Assignment: map[string]string{"cell": cellLevel(cell)},
		Responses:  responses(seed, run, cell, rep, drift),
	}
}

// records generates cells × reps normalized records in canonical
// (row, replicate) order — the order a sequential run appends them in.
func records(seed uint64, run, cells, reps int, drift float64) ([]runstore.Record, error) {
	out := make([]runstore.Record, 0, cells*reps)
	for c := 0; c < cells; c++ {
		for r := 0; r < reps; r++ {
			rec, err := runstore.NormalizeAppend(record(seed, run, c, r, drift))
			if err != nil {
				return nil, err
			}
			out = append(out, rec)
		}
	}
	return out, nil
}

// experiment builds the synthetic harness.Experiment: one `cell` factor
// in a design.Simple (row i is cell i), two responses, and a runner that
// spins a fixed ≈5 µs before returning responses(seed, 0, cell, rep).
// wrap, when non-nil, decorates the runner (the traced pass times it).
func experiment(seed uint64, cells, reps int, wrap func(harness.RunFunc) harness.RunFunc) (*harness.Experiment, error) {
	levels := make([]string, cells)
	index := make(map[string]int, cells)
	for i := range levels {
		levels[i] = cellLevel(i)
		index[levels[i]] = i
	}
	f, err := design.NewFactor("cell", levels...)
	if err != nil {
		return nil, err
	}
	d, err := design.Simple([]design.Factor{f})
	if err != nil {
		return nil, err
	}
	d.Replicates = reps
	run := harness.RunFunc(func(a design.Assignment, rep int) (map[string]float64, error) {
		cell, ok := index[a["cell"]]
		if !ok {
			return nil, fmt.Errorf("bench: unknown cell %q", a["cell"])
		}
		acc := float64(cell + rep)
		for i := 0; i < runnerSpin; i++ {
			acc = acc*0.999 + 0.001
		}
		runtime.KeepAlive(acc)
		return responses(seed, 0, cell, rep, 0), nil
	})
	if wrap != nil {
		run = wrap(run)
	}
	return &harness.Experiment{Name: expName, Design: d, Responses: []string{"ms", "io"}, Run: run}, nil
}

// writeJournal writes recs to path in the journal's exact line framing
// (runstore.EncodeWire emits the bytes Journal.Append would persist)
// without the per-record fsync: fixtures need the bytes, not the
// durability.
func writeJournal(path string, recs []runstore.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, rec := range recs {
		if err := runstore.EncodeWire(w, rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scaled applies the -scale factor to a record-count dimension, never
// below floor: scale changes how many records travel, not the shape of
// the journey.
func scaled(n int, scale float64, floor int) int {
	return max(floor, int(math.Round(float64(n)*scale)))
}
