package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The sandbox this benchmark runs in is a few cores of a shared host, and
// what the host leaves over drifts by a factor of two over tens of
// minutes, for the processor and the disk alike, without the hypervisor
// reporting any of it as steal (README.md, "Machine speed", has the
// measurements). A wall-clock time therefore says when it was measured
// more than what was measured. So the run keeps measuring the machine
// beside the program: a probe — a fixed piece of the benchmark's own
// work, none of the product's — runs before and after every repetition,
// and every duration of that repetition is converted to what it would
// have been on a machine that runs the probe in referenceProbe.

// referenceProbe is how long the probe takes on the reference machine:
// this sandbox in a calm phase. It only fixes the scale of the reported
// numbers; any constant cancels out of a comparison.
const referenceProbe = 40 * time.Millisecond

const (
	probeDocs   = 1600  // JSON round trips per probe
	probeSort   = 80000 // integers sorted per probe
	probeSyncs  = 128   // fsynced appends per probe
	probeRecord = 140   // bytes per append: one journal line
)

// prober measures the machine's speed of the moment.
type prober struct {
	f   *os.File
	buf [probeRecord]byte
}

func newProber(dir string) (*prober, error) {
	f, err := os.OpenFile(filepath.Join(dir, "probe.dat"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &prober{f: f}, nil
}

func (p *prober) close() error { return p.f.Close() }

type probeDoc struct {
	Name   string             `json:"name"`
	Row    int                `json:"row"`
	Levels map[string]string  `json:"levels"`
	Values map[string]float64 `json:"values"`
}

// measure runs the probe once and returns how long it took. Half of it
// (on the reference machine) is processor work of the kind the product
// does — encode and decode small documents, fill and sort a slice — and
// half is what the journal does to the disk: small appends, each followed
// by an fsync. One number for both: timed separately and applied by each
// duration's share of disk time, the halves tracked the workloads no
// better, and in some sets worse, than their sum (README.md).
func (p *prober) measure() (time.Duration, error) {
	settle()
	start := time.Now()
	sink := 0
	for i := 0; i < probeDocs; i++ {
		doc := probeDoc{
			Name: expName, Row: i,
			Levels: map[string]string{"cell": cellLevel(i), "k": "v"},
			Values: map[string]float64{"ms": float64(i) * 1.25, "io": float64(i)},
		}
		data, err := json.Marshal(doc)
		if err != nil {
			return 0, err
		}
		var back probeDoc
		if err := json.Unmarshal(data, &back); err != nil {
			return 0, err
		}
		sink += len(data) + back.Row
	}
	xs := make([]uint64, probeSort)
	for i := range xs {
		xs[i] = mix(uint64(i + sink))
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for i := 0; i < probeSyncs; i++ {
		if _, err := p.f.Write(p.buf[:]); err != nil {
			return 0, err
		}
		if err := p.f.Sync(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// speedBetween is the machine's speed during an interval that began after
// one probe and ended before the next, as a share of the reference
// machine's: 1 on the reference machine, 0.5 on one that takes twice as
// long over the probe. A duration measured meanwhile, multiplied by it, is
// what the duration would have been on the reference machine.
func speedBetween(before, after time.Duration) float64 {
	return float64(2*referenceProbe) / float64(before+after)
}
