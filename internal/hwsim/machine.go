// Package hwsim is the simulated hardware substrate under every timing
// experiment in this repository. The paper measured real machines (a
// Pentium M laptop, and for the memory-wall figure a series of 1990s
// workstations); we have none of them, so hwsim models each machine as a
// cost profile — CPU clock and work per operation, cache hierarchy, memory
// latency and bandwidth, disk, and output sinks — and charges those costs
// to a deterministic VirtualClock. That keeps every paper experiment
// exactly repeatable (itself a core principle of the paper) while
// preserving the effects the experiments demonstrate: hot/cold gaps, user
// vs real decomposition, terminal-output overheads, compiler-flag factors,
// and the memory wall.
package hwsim

import "fmt"

// Cache models one cache level.
type Cache struct {
	SizeBytes     int
	LineBytes     int
	LatencyCycles float64 // access latency on hit at this level
}

// Machine is a hardware cost profile. All costs ultimately reduce to
// nanoseconds charged to a VirtualClock.
type Machine struct {
	Name    string
	Year    int
	CPU     string
	ClockHz float64

	// CyclesPerValue is the CPU work a tight scan loop spends per value
	// (load, compare, branch); newer superscalar machines spend fewer.
	CyclesPerValue float64
	// CyclesPerTupleOverhead is the interpretation overhead a
	// tuple-at-a-time engine pays per tuple per operator (the MySQL-vs-
	// MonetDB contrast in the paper's profiling figure).
	CyclesPerTupleOverhead float64

	L1, L2 Cache

	MemLatencyNs    float64 // DRAM access latency (per cache-line miss)
	MemBandwidthBps float64 // sustained sequential bandwidth

	DiskSeekMs float64 // average seek+rotation
	DiskMBps   float64 // sequential transfer rate

	// Output sink costs (paper T1: where the result output goes matters).
	FileNsPerByte     float64 // writing the result to a file
	TerminalNsPerByte float64 // rendering the result on a terminal
	ClientNsPerByte   float64 // shipping the result server -> client
}

// Validate reports configuration errors that would produce nonsense costs.
func (m *Machine) Validate() error {
	switch {
	case m.ClockHz <= 0:
		return fmt.Errorf("hwsim: machine %q: ClockHz must be positive", m.Name)
	case m.CyclesPerValue <= 0:
		return fmt.Errorf("hwsim: machine %q: CyclesPerValue must be positive", m.Name)
	case m.MemLatencyNs < 0 || m.MemBandwidthBps <= 0:
		return fmt.Errorf("hwsim: machine %q: invalid memory parameters", m.Name)
	case m.L2.LineBytes <= 0:
		return fmt.Errorf("hwsim: machine %q: L2 line size must be positive", m.Name)
	case m.DiskMBps <= 0:
		return fmt.Errorf("hwsim: machine %q: DiskMBps must be positive", m.Name)
	}
	return nil
}

// CycleNs returns the duration of one CPU cycle in nanoseconds.
func (m *Machine) CycleNs() float64 { return 1e9 / m.ClockHz }

// The memory-wall machine series (paper slides 46/51). Parameters are
// calibrated so a tight in-memory scan shows the published shape: CPU
// clock improves 10x across the series while elapsed time per iteration
// barely improves, because per-iteration memory cost stays roughly flat.
var (
	// SunLX1992 is the 1992 Sun LX: 50 MHz Sparc.
	SunLX1992 = Machine{
		Name: "Sun LX", Year: 1992, CPU: "Sparc", ClockHz: 50e6,
		CyclesPerValue: 8, CyclesPerTupleOverhead: 100,
		L1:           Cache{SizeBytes: 8 << 10, LineBytes: 16, LatencyCycles: 1},
		L2:           Cache{SizeBytes: 0, LineBytes: 16, LatencyCycles: 1},
		MemLatencyNs: 200, MemBandwidthBps: 80e6,
		DiskSeekMs: 14, DiskMBps: 4,
		FileNsPerByte: 400, TerminalNsPerByte: 4000, ClientNsPerByte: 800,
	}
	// SunUltra1996 is the 1996 Sun Ultra: 200 MHz UltraSparc.
	SunUltra1996 = Machine{
		Name: "Sun Ultra", Year: 1996, CPU: "UltraSparc", ClockHz: 200e6,
		CyclesPerValue: 6, CyclesPerTupleOverhead: 150,
		L1:           Cache{SizeBytes: 16 << 10, LineBytes: 32, LatencyCycles: 1},
		L2:           Cache{SizeBytes: 512 << 10, LineBytes: 32, LatencyCycles: 6},
		MemLatencyNs: 300, MemBandwidthBps: 180e6,
		DiskSeekMs: 11, DiskMBps: 9,
		FileNsPerByte: 200, TerminalNsPerByte: 2500, ClientNsPerByte: 500,
	}
	// SunUltraII1997 is the 1997 Sun Ultra: 296 MHz UltraSparcII.
	SunUltraII1997 = Machine{
		Name: "Sun Ultra II", Year: 1997, CPU: "UltraSparcII", ClockHz: 296e6,
		CyclesPerValue: 6, CyclesPerTupleOverhead: 160,
		L1:           Cache{SizeBytes: 16 << 10, LineBytes: 32, LatencyCycles: 1},
		L2:           Cache{SizeBytes: 1 << 20, LineBytes: 64, LatencyCycles: 7},
		MemLatencyNs: 290, MemBandwidthBps: 250e6,
		DiskSeekMs: 10, DiskMBps: 12,
		FileNsPerByte: 180, TerminalNsPerByte: 2200, ClientNsPerByte: 450,
	}
	// DECAlpha1998 is the 1998 DEC Alpha: 500 MHz.
	DECAlpha1998 = Machine{
		Name: "DEC Alpha", Year: 1998, CPU: "Alpha 21164", ClockHz: 500e6,
		CyclesPerValue: 5, CyclesPerTupleOverhead: 200,
		L1:           Cache{SizeBytes: 8 << 10, LineBytes: 32, LatencyCycles: 1},
		L2:           Cache{SizeBytes: 4 << 20, LineBytes: 64, LatencyCycles: 8},
		MemLatencyNs: 280, MemBandwidthBps: 350e6,
		DiskSeekMs: 9, DiskMBps: 16,
		FileNsPerByte: 150, TerminalNsPerByte: 2000, ClientNsPerByte: 400,
	}
	// Origin2000R12000 is the 2000 SGI Origin 2000: 300 MHz R12000.
	Origin2000R12000 = Machine{
		Name: "Origin 2000", Year: 2000, CPU: "R12000", ClockHz: 300e6,
		CyclesPerValue: 4, CyclesPerTupleOverhead: 220,
		L1: Cache{SizeBytes: 32 << 10, LineBytes: 32, LatencyCycles: 1},
		L2: Cache{SizeBytes: 8 << 20, LineBytes: 128, LatencyCycles: 10},
		// NUMA remote-access latency: the Origin 2000 is slightly
		// SLOWER per scanned value than the 1998 Alpha, the uptick
		// visible at the right edge of the paper's figure.
		MemLatencyNs: 400, MemBandwidthBps: 450e6,
		DiskSeekMs: 8, DiskMBps: 25,
		FileNsPerByte: 120, TerminalNsPerByte: 1800, ClientNsPerByte: 350,
	}

	// PentiumM2005 is the paper's measurement laptop: "1.5 GHz Pentium M
	// (Dothan), 32KB L1 cache, 2MB L2 cache, 2 GB RAM, 5400RPM disk".
	// Its sink costs are calibrated against the paper's T1 table:
	// terminal output costs ~0.63 us/byte more than file output.
	PentiumM2005 = Machine{
		Name: "Laptop", Year: 2005, CPU: "Pentium M (Dothan)", ClockHz: 1.5e9,
		CyclesPerValue: 3, CyclesPerTupleOverhead: 400,
		L1:           Cache{SizeBytes: 32 << 10, LineBytes: 64, LatencyCycles: 3},
		L2:           Cache{SizeBytes: 2 << 20, LineBytes: 64, LatencyCycles: 10},
		MemLatencyNs: 120, MemBandwidthBps: 1.6e9,
		DiskSeekMs: 12, DiskMBps: 35,
		FileNsPerByte: 74, TerminalNsPerByte: 700, ClientNsPerByte: 1,
	}
)

// MemoryWallSeries returns the five machine generations of the paper's
// memory-wall figure, in publication order.
func MemoryWallSeries() []Machine {
	return []Machine{SunLX1992, SunUltra1996, SunUltraII1997, DECAlpha1998, Origin2000R12000}
}
