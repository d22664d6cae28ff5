package hwsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/measure"
)

func TestProfilesValid(t *testing.T) {
	machines := append(MemoryWallSeries(), PentiumM2005)
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateCatchesBadConfig(t *testing.T) {
	bad := []Machine{
		{Name: "no clock", CyclesPerValue: 1, MemBandwidthBps: 1, DiskMBps: 1, L2: Cache{LineBytes: 64}},
		{Name: "no cpv", ClockHz: 1e9, MemBandwidthBps: 1, DiskMBps: 1, L2: Cache{LineBytes: 64}},
		{Name: "no bw", ClockHz: 1e9, CyclesPerValue: 1, DiskMBps: 1, L2: Cache{LineBytes: 64}},
		{Name: "no line", ClockHz: 1e9, CyclesPerValue: 1, MemBandwidthBps: 1, DiskMBps: 1},
		{Name: "no disk", ClockHz: 1e9, CyclesPerValue: 1, MemBandwidthBps: 1, L2: Cache{LineBytes: 64}},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.Name)
		}
	}
}

// TestMemoryWallShape pins the phenomenon of the paper's figure: across the
// 1992-2000 machine series, CPU clock improves ~10x but the elapsed time
// per scanned value "hardly improves" because the memory component stays
// roughly flat and comes to dominate.
func TestMemoryWallShape(t *testing.T) {
	series := MemoryWallSeries()
	first := series[0].ScanNsPerValue(8)
	last := series[len(series)-1].ScanNsPerValue(8)

	clockRatio := series[len(series)-1].ClockHz / series[0].ClockHz
	if clockRatio < 5 {
		t.Fatalf("clock ratio = %.1f, series should span >= 5x", clockRatio)
	}
	// CPU component improves greatly...
	if cpuRatio := first.CPUNs / last.CPUNs; cpuRatio < 5 {
		t.Errorf("CPU component ratio = %.1f, want >= 5x improvement", cpuRatio)
	}
	// ...but total per-iteration time improves far less than the clock.
	totalRatio := first.TotalNs() / last.TotalNs()
	if totalRatio > clockRatio/2 {
		t.Errorf("total improvement %.1fx too close to clock improvement %.1fx: no memory wall", totalRatio, clockRatio)
	}
	// On the newest machines memory dominates.
	if last.MemNs < last.CPUNs {
		t.Errorf("2000 machine: memory (%.1fns) should dominate CPU (%.1fns)", last.MemNs, last.CPUNs)
	}
	// The first machine is CPU-bound instead.
	if first.CPUNs < first.MemNs {
		t.Errorf("1992 machine: CPU (%.1fns) should dominate memory (%.1fns)", first.CPUNs, first.MemNs)
	}
}

func TestScanCostCacheResident(t *testing.T) {
	m := PentiumM2005
	// 1000 * 4B = 4KB fits in L2: memory cost is L2 latency per line.
	inCache := m.ScanCost(1000, 4)
	outCache := Cost{}
	{
		big := m.ScanCost(10<<20, 4)
		outCache = big.Scale(1000.0 / float64(10<<20))
	}
	if inCache.MemNs >= outCache.MemNs {
		t.Errorf("cache-resident scan memory cost %.1f should be below DRAM scan %.1f", inCache.MemNs, outCache.MemNs)
	}
	// Degenerate inputs.
	if c := m.ScanCost(0, 4); c.TotalNs() != 0 {
		t.Errorf("zero rows cost = %v", c)
	}
	if c := m.ScanCost(10, 0); c.TotalNs() != 0 {
		t.Errorf("zero width cost = %v", c)
	}
}

func TestScanCostMonotoneInRows(t *testing.T) {
	m := SunUltra1996
	f := func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw)+1, int(bRaw)+1
		if a > b {
			a, b = b, a
		}
		ca, cb := m.ScanCost(a, 8), m.ScanCost(b, 8)
		return ca.TotalNs() <= cb.TotalNs()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomAccessCostTiers(t *testing.T) {
	m := PentiumM2005
	l1 := m.RandomAccessCost(1000, 16<<10)  // fits L1
	l2 := m.RandomAccessCost(1000, 1<<20)   // fits L2
	mem := m.RandomAccessCost(1000, 64<<20) // DRAM
	if !(l1.MemNs < l2.MemNs && l2.MemNs < mem.MemNs) {
		t.Errorf("latency tiers wrong: L1=%.0f L2=%.0f mem=%.0f", l1.MemNs, l2.MemNs, mem.MemNs)
	}
	if c := m.RandomAccessCost(0, 100); c.TotalNs() != 0 {
		t.Errorf("zero accesses cost = %v", c)
	}
}

func TestDiskReadNs(t *testing.T) {
	m := PentiumM2005
	if got := m.DiskReadNs(0); got != 0 {
		t.Errorf("zero bytes = %v", got)
	}
	// 35 MB at 35 MB/s = 1s transfer + 12ms seek.
	got := m.DiskReadNs(35 << 20)
	wantLo, wantHi := 1.0e9, 1.1e9
	if got < wantLo || got > wantHi {
		t.Errorf("35MB read = %.0fns, want ~1.012e9", got)
	}
	// Seek dominates small reads.
	small := m.DiskReadNs(512)
	if small < m.DiskSeekMs*1e6 {
		t.Errorf("small read %.0fns below seek cost", small)
	}
}

// TestOutputSinkOrdering pins the T1 phenomenon: for the same bytes,
// terminal > client file > server file, and costs scale with size.
func TestOutputSinkOrdering(t *testing.T) {
	m := PentiumM2005
	const small, large = 1300, 1200 << 10 // the paper's 1.3KB and 1.2MB
	for _, bytes := range []int64{small, large} {
		_, server := m.OutputNs(SinkServerFile, bytes)
		_, client := m.OutputNs(SinkClientFile, bytes)
		_, term := m.OutputNs(SinkClientTerminal, bytes)
		if !(server < client && client < term) {
			t.Errorf("%d bytes: sink ordering violated: %g %g %g", bytes, server, client, term)
		}
	}
	// Terminal penalty for 1.2MB must be in the hundreds of ms (paper:
	// 1468ms vs 707ms for Q16), for 1.3KB negligible (3575 vs 3534).
	_, fileL := m.OutputNs(SinkClientFile, large)
	_, termL := m.OutputNs(SinkClientTerminal, large)
	deltaMs := (termL - fileL) / 1e6
	if deltaMs < 300 || deltaMs > 2000 {
		t.Errorf("terminal penalty for 1.2MB = %.0fms, want hundreds of ms", deltaMs)
	}
	_, fileS := m.OutputNs(SinkClientFile, small)
	_, termS := m.OutputNs(SinkClientTerminal, small)
	if (termS-fileS)/1e6 > 50 {
		t.Errorf("terminal penalty for 1.3KB = %.1fms, should be small", (termS-fileS)/1e6)
	}
	if cpu, io := m.OutputNs(SinkServerFile, 0); cpu != 0 || io != 0 {
		t.Error("zero bytes should cost nothing")
	}
	if _, io := m.OutputNs(Sink(99), 100); io != 0 {
		t.Error("unknown sink should cost nothing")
	}
}

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock()
	c.AdvanceCPU(100)
	c.AdvanceIO(50)
	if c.Now() != 150*time.Nanosecond {
		t.Errorf("now = %v", c.Now())
	}
	if c.User() != 100*time.Nanosecond || c.IOWait() != 50*time.Nanosecond {
		t.Errorf("split = %v/%v", c.User(), c.IOWait())
	}
	c.AdvanceCPU(-10) // ignored
	c.AdvanceIO(-10)  // ignored
	if c.Now() != 150*time.Nanosecond {
		t.Errorf("negative advance changed clock: %v", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("reset failed: %v", c.Now())
	}
}

func TestVirtualClockWithStopwatch(t *testing.T) {
	c := NewVirtualClock()
	sw := measure.NewStopwatch(c)
	c.AdvanceCPU(2e6)
	c.AdvanceIO(3e6)
	s := sw.Sample()
	if s.Real != 5*time.Millisecond || s.User != 2*time.Millisecond || s.IO != 3*time.Millisecond {
		t.Errorf("sample = %+v", s)
	}
}

// TestBuildModeFactors pins the DBG/OPT anecdote: Debug multiplies CPU work
// by class-specific factors in roughly the paper's observed range, while
// Optimized leaves it untouched.
func TestBuildModeFactors(t *testing.T) {
	f := DefaultDebugOverheads
	classes := []OpClass{OpScan, OpFilter, OpJoin, OpAggregate, OpSort, OpProject}
	for _, op := range classes {
		if got := Optimized.Factor(f, op); got != 1 {
			t.Errorf("optimized factor for %v = %g", op, got)
		}
		dbg := Debug.Factor(f, op)
		if dbg < 1.1 || dbg > 2.5 {
			t.Errorf("debug factor for %v = %g, want in [1.1, 2.5]", op, dbg)
		}
		if op.String() == "" {
			t.Errorf("empty OpClass string for %v", int(op))
		}
	}
	if Debug.String() != "DBG" || Optimized.String() != "OPT" {
		t.Error("BuildMode strings")
	}
	if got := Debug.Factor(f, OpClass(42)); got != 1 {
		t.Errorf("unknown class factor = %g", got)
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{CPUNs: 1, MemNs: 2}
	b := Cost{CPUNs: 10, MemNs: 20}
	if got := a.Add(b); got != (Cost{CPUNs: 11, MemNs: 22}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(3); got != (Cost{CPUNs: 3, MemNs: 6}) {
		t.Errorf("Scale = %v", got)
	}
	if a.TotalNs() != 3 {
		t.Errorf("TotalNs = %g", a.TotalNs())
	}
	if a.String() == "" {
		t.Error("empty cost string")
	}
	if SinkServerFile.String() == "" || Sink(9).String() == "" {
		t.Error("sink strings")
	}
}
