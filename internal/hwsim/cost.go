package hwsim

import "fmt"

// Cost decomposes an operation's simulated time into CPU work and memory
// stall — the dissection the paper says plain profilers cannot give you and
// hardware counters can ("Need to dissect CPU & memory access costs").
type Cost struct {
	CPUNs float64
	MemNs float64
}

// TotalNs returns CPU + memory nanoseconds.
func (c Cost) TotalNs() float64 { return c.CPUNs + c.MemNs }

// Scale multiplies both components by f.
func (c Cost) Scale(f float64) Cost { return Cost{CPUNs: c.CPUNs * f, MemNs: c.MemNs * f} }

func (c Cost) String() string {
	return fmt.Sprintf("cpu=%.1fns mem=%.1fns total=%.1fns", c.CPUNs, c.MemNs, c.TotalNs())
}

// ScanCost models a tight sequential scan over n values of elemBytes each
// (the paper's "SELECT MAX(column) FROM table" micro-benchmark).
//
// CPU component: CyclesPerValue per value at the machine's clock.
// Memory component: one innermost-cache-line fill every L1LineBytes /
// elemBytes values. Machines of the memory-wall era had no hardware
// prefetching, so each line fill stalls for the larger of the full DRAM
// latency and the bandwidth time for the line — which is exactly why clock
// speed gains did not translate into scan speed gains. When the data fits
// in L2, the fill costs the L2 hit latency instead.
func (m *Machine) ScanCost(n int, elemBytes int) Cost {
	if n <= 0 || elemBytes <= 0 {
		return Cost{}
	}
	cpu := float64(n) * m.CyclesPerValue * m.CycleNs()

	line := m.L1.LineBytes
	if line <= 0 {
		line = m.L2.LineBytes
	}
	if line <= 0 {
		line = 32
	}
	valuesPerLine := float64(line) / float64(elemBytes)
	if valuesPerLine < 1 {
		valuesPerLine = 1
	}
	lines := float64(n) / valuesPerLine

	totalBytes := n * elemBytes
	var perLine float64
	if m.L2.SizeBytes > 0 && totalBytes <= m.L2.SizeBytes {
		perLine = m.L2.LatencyCycles * m.CycleNs()
	} else {
		latency := m.MemLatencyNs
		bandwidth := float64(line) / m.MemBandwidthBps * 1e9
		perLine = latency
		if bandwidth > perLine {
			perLine = bandwidth
		}
	}
	return Cost{CPUNs: cpu, MemNs: lines * perLine}
}

// ScanNsPerValue returns the per-iteration cost of an out-of-cache scan —
// the y-axis of the memory-wall figure. The working set is sized to exceed
// the machine's L2 severalfold so the scan runs from DRAM.
func (m *Machine) ScanNsPerValue(elemBytes int) Cost {
	n := 1 << 20
	if elemBytes > 0 {
		for n*elemBytes < 4*m.L2.SizeBytes {
			n *= 2
		}
	}
	return m.ScanCost(n, elemBytes).Scale(1.0 / float64(n))
}

// RandomAccessCost models n dependent random accesses into a working set of
// wsBytes: every access misses when the working set exceeds L2 and pays the
// full memory latency; inside L2 it pays the L2 latency; inside L1 the L1
// latency.
func (m *Machine) RandomAccessCost(n int, wsBytes int) Cost {
	if n <= 0 {
		return Cost{}
	}
	cpu := float64(n) * m.CyclesPerValue * m.CycleNs()
	var perAccess float64
	switch {
	case wsBytes <= m.L1.SizeBytes:
		perAccess = m.L1.LatencyCycles * m.CycleNs()
	case m.L2.SizeBytes > 0 && wsBytes <= m.L2.SizeBytes:
		perAccess = m.L2.LatencyCycles * m.CycleNs()
	default:
		perAccess = m.MemLatencyNs
	}
	return Cost{CPUNs: cpu, MemNs: float64(n) * perAccess}
}

// DiskReadNs models reading `bytes` sequentially from disk: one seek plus
// transfer at the sequential rate. This is the I/O-wait component that makes
// cold runs' real time exceed their user time.
func (m *Machine) DiskReadNs(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	seek := m.DiskSeekMs * 1e6
	transfer := float64(bytes) / (m.DiskMBps * 1e6) * 1e9
	return seek + transfer
}

// Sink identifies where query result output goes — the paper's T1 shows the
// choice is measurable: "Be aware what you measure!"
type Sink int

const (
	// SinkServerFile discards output on the server side (times the
	// server only).
	SinkServerFile Sink = iota
	// SinkClientFile ships the result to a client that writes a file.
	SinkClientFile
	// SinkClientTerminal ships the result to a client that renders it on
	// a terminal.
	SinkClientTerminal
)

func (s Sink) String() string {
	switch s {
	case SinkServerFile:
		return "server/file"
	case SinkClientFile:
		return "client/file"
	case SinkClientTerminal:
		return "client/terminal"
	default:
		return fmt.Sprintf("Sink(%d)", int(s))
	}
}

// OutputNs returns the nanoseconds charged for emitting `bytes` of result
// output to the given sink. Server-side file writes are charged as I/O
// (they inflate real but not user time); client shipping and rendering are
// charged on top.
func (m *Machine) OutputNs(s Sink, bytes int64) (cpuNs, ioNs float64) {
	if bytes <= 0 {
		return 0, 0
	}
	b := float64(bytes)
	switch s {
	case SinkServerFile:
		return 0, b * m.FileNsPerByte
	case SinkClientFile:
		return 0, b * (m.FileNsPerByte + m.ClientNsPerByte)
	case SinkClientTerminal:
		return 0, b * (m.FileNsPerByte + m.ClientNsPerByte + m.TerminalNsPerByte)
	default:
		return 0, 0
	}
}
