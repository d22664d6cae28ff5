// Package netsim is a cycle-level simulator of processor-memory
// interconnection networks, the substrate behind the paper's allocation-of-
// variation example (slides 86-93): comparing a non-blocking crossbar with
// a blocking omega network under two address reference patterns, and
// measuring throughput, 90th-percentile transit time, and average response
// time. The paper quotes results from Jain's book; this simulator generates
// live data with the same qualitative structure — the address pattern
// explains most of the variation, the network type less, their interaction
// least.
package netsim

import (
	"fmt"
	"math/bits"
	"sort"
)

// rng is the same splitmix64 generator used elsewhere in the repository.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Network models an N-processor to N-module interconnect by the set of
// internal links a request occupies: two requests conflict in a cycle when
// their link sets intersect.
type Network interface {
	// Name identifies the network ("Crossbar", "Omega").
	Name() string
	// Route returns the link ids a request from processor src to module
	// dst occupies, and is deterministic.
	Route(src, dst int) []int
	// PathLen is the base transit latency in cycles of an unblocked
	// request.
	PathLen() int
}

// Crossbar is a non-blocking crossbar: requests conflict only when they
// target the same memory module.
type Crossbar struct{ N int }

// Name implements Network.
func (c Crossbar) Name() string { return "Crossbar" }

// Route implements Network: the only shared resource is the module port.
func (c Crossbar) Route(src, dst int) []int { return []int{dst} }

// PathLen implements Network: one switch hop.
func (c Crossbar) PathLen() int { return 1 }

// Omega is a multistage omega (perfect-shuffle) network of 2x2 switches:
// log2(N) stages, with internal links shared between paths — the source of
// blocking that the crossbar does not have.
type Omega struct{ N int }

// Name implements Network.
func (o Omega) Name() string { return "Omega" }

// stages returns log2(N).
func (o Omega) stages() int { return bits.Len(uint(o.N)) - 1 }

// Route implements Network using the standard shuffle-exchange node
// numbering: after stage s, a request from src to dst occupies the node
// whose value keeps the top (s+1) bits of dst and the low bits of src.
// Stage 0 is omitted: its contention is absorbed by the input buffers each
// processor owns exclusively, so the first shared resources are the
// second-stage links.
func (o Omega) Route(src, dst int) []int {
	k := o.stages()
	links := make([]int, 0, k)
	for s := 1; s < k; s++ {
		v := ((src << uint(s+1)) | (dst >> uint(k-s-1))) & (o.N - 1)
		links = append(links, s*o.N+v)
	}
	// Final module port, shared with every path to the same module.
	links = append(links, k*o.N+dst)
	return links
}

// PathLen implements Network: one cycle per stage.
func (o Omega) PathLen() int { return o.stages() }

// Pattern generates memory-module destinations for processor requests.
type Pattern interface {
	// Name identifies the pattern ("Random", "Matrix").
	Name() string
	// Dest returns the destination module of processor proc's step-th
	// request, over nModules modules.
	Dest(proc, step, nModules int, r *rng) int
}

// RandomPattern picks destinations uniformly: conflicts are incidental.
type RandomPattern struct{}

// Name implements Pattern.
func (RandomPattern) Name() string { return "Random" }

// Dest implements Pattern.
func (RandomPattern) Dest(_, _, nModules int, r *rng) int { return r.intn(nModules) }

// MatrixPattern models column-order access to a row-major matrix: the
// classic stride pattern that concentrates consecutive references onto a
// quarter of the memory modules, creating heavy bank conflicts on any
// network.
type MatrixPattern struct{}

// Name implements Pattern.
func (MatrixPattern) Name() string { return "Matrix" }

// Dest implements Pattern.
func (MatrixPattern) Dest(proc, step, nModules int, _ *rng) int {
	// A quarter of the modules minus one: not dividing the processor
	// count keeps the conflict phases rotating instead of letting the
	// processors self-synchronize into a conflict-free schedule.
	banks := nModules/4 - 1
	if banks < 2 {
		banks = 2
	}
	return (proc + step) % banks
}

// Config parameterizes a simulation run.
type Config struct {
	Procs  int    // number of processors = number of modules (power of two)
	Cycles int    // simulated cycles
	Think  int    // idle cycles between a response and the next request
	Seed   uint64 // PRNG seed
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Procs < 2 || c.Procs&(c.Procs-1) != 0 {
		return fmt.Errorf("netsim: Procs must be a power of two >= 2, got %d", c.Procs)
	}
	if c.Cycles < 1 {
		return fmt.Errorf("netsim: Cycles must be positive, got %d", c.Cycles)
	}
	if c.Think < 0 {
		return fmt.Errorf("netsim: Think must be non-negative, got %d", c.Think)
	}
	return nil
}

// Metrics are the three response variables of the paper's example.
type Metrics struct {
	// Throughput T: completed requests per processor per cycle.
	Throughput float64
	// Transit90 N: 90th percentile of transit time in cycles.
	Transit90 float64
	// AvgResponse R: mean transit time in cycles.
	AvgResponse float64
	// Completed is the raw completed-request count.
	Completed int
}

// Simulate runs the network under the pattern for cfg.Cycles cycles.
//
// Model: each processor has at most one outstanding request. Pending
// requests are considered in processor order each cycle; a request is
// admitted if none of its links is taken by an already-admitted request
// this cycle (circuit-switched, greedy arbitration). Admitted requests
// complete after the network's path length; blocked requests retry.
func Simulate(net Network, pat Pattern, cfg Config) (Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	n := cfg.Procs
	r := &rng{state: cfg.Seed}

	type proc struct {
		issueAt  int // cycle the current request was issued (-1: thinking)
		readyAt  int // cycle the processor issues its next request
		step     int
		dst      int
		inFlight bool
	}
	procs := make([]proc, n)
	for i := range procs {
		procs[i].issueAt = -1
	}

	var transits []float64
	completed := 0
	linkTaken := make(map[int]bool, 4*n)

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		// Issue new requests.
		for p := range procs {
			if !procs[p].inFlight && cycle >= procs[p].readyAt {
				procs[p].dst = pat.Dest(p, procs[p].step, n, r)
				procs[p].step++
				procs[p].issueAt = cycle
				procs[p].inFlight = true
			}
		}
		// Arbitrate.
		for k := range linkTaken {
			delete(linkTaken, k)
		}
		for p := range procs {
			if !procs[p].inFlight || procs[p].issueAt > cycle {
				continue
			}
			links := net.Route(p, procs[p].dst)
			conflict := false
			for _, l := range links {
				if linkTaken[l] {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			for _, l := range links {
				linkTaken[l] = true
			}
			transit := cycle - procs[p].issueAt + net.PathLen()
			transits = append(transits, float64(transit))
			completed++
			procs[p].inFlight = false
			// Issue-to-issue gap is one cycle plus think time: memory
			// accesses are pipelined, so the path length shows up in
			// transit time but does not throttle the issue rate.
			procs[p].readyAt = cycle + 1 + cfg.Think
		}
	}

	m := Metrics{Completed: completed}
	if completed > 0 {
		m.Throughput = float64(completed) / float64(n*cfg.Cycles)
		sort.Float64s(transits)
		idx := int(0.9 * float64(len(transits)-1))
		m.Transit90 = transits[idx]
		var sum float64
		for _, t := range transits {
			sum += t
		}
		m.AvgResponse = sum / float64(len(transits))
	}
	return m, nil
}

// PaperData returns the published response table of the paper's example
// (slides 90-93) in canonical 2^2 run order (network varies slowest:
// Crossbar+Random, Crossbar+Matrix, Omega+Random, Omega+Matrix), keyed by
// response variable name. Feeding these to design.EstimateEffects
// reproduces the published "variation explained" percentages exactly.
func PaperData() map[string][]float64 {
	return map[string][]float64{
		"T": {0.6041, 0.4220, 0.7922, 0.4717},
		"N": {3, 5, 2, 4},
		"R": {1.655, 2.378, 1.262, 2.190},
	}
}
