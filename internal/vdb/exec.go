package vdb

import (
	"fmt"

	"repro/internal/hwsim"
)

// ExecContext carries everything an engine needs for one query execution:
// the catalog, and optionally a simulated machine whose costs are charged
// to a virtual clock (nil Machine/Clock disables cost accounting — the
// engines then just compute).
type ExecContext struct {
	DB      *DB
	Machine *hwsim.Machine
	Clock   *hwsim.VirtualClock
	// Mode is the build the costs are charged for; a Debug build pays
	// hwsim.DefaultDebugOverheads per operator class.
	Mode     hwsim.BuildMode
	Buffers  *BufferManager
	Profiler *Profiler
}

// NewContext builds a context with cost accounting disabled.
func NewContext(db *DB) *ExecContext { return &ExecContext{DB: db} }

// NewSimContext builds a context that charges machine costs to clock.
func NewSimContext(db *DB, m *hwsim.Machine, clock *hwsim.VirtualClock) *ExecContext {
	return &ExecContext{DB: db, Machine: m, Clock: clock, Buffers: NewBufferManager()}
}

// simulated reports whether cost accounting is active.
func (ctx *ExecContext) simulated() bool { return ctx.Machine != nil && ctx.Clock != nil }

// chargeCycles charges CPU cycles for op-class work, applying the build
// mode's overhead factor.
func (ctx *ExecContext) chargeCycles(cycles float64, op hwsim.OpClass) {
	if !ctx.simulated() || cycles <= 0 {
		return
	}
	f := ctx.Mode.Factor(hwsim.DefaultDebugOverheads, op)
	ctx.Clock.AdvanceCPU(cycles * ctx.Machine.CycleNs() * f)
}

// chargeTupleOverhead charges the per-tuple interpretation overhead the
// tuple-at-a-time engine pays in every operator.
func (ctx *ExecContext) chargeTupleOverhead(tuples int, op hwsim.OpClass) {
	if ctx.simulated() && tuples > 0 {
		ctx.chargeCycles(float64(tuples)*ctx.Machine.CyclesPerTupleOverhead, op)
	}
}

// chargeValueWork charges per-value CPU work (tight-loop processing).
func (ctx *ExecContext) chargeValueWork(values int, op hwsim.OpClass) {
	if ctx.simulated() && values > 0 {
		ctx.chargeCycles(float64(values)*ctx.Machine.CyclesPerValue, op)
	}
}

// chargeScanMemory charges the memory-stall component of streaming n values
// of the given width through the CPU (data movement).
func (ctx *ExecContext) chargeScanMemory(n int, widthBytes int) {
	if !ctx.simulated() || n <= 0 {
		return
	}
	c := ctx.Machine.ScanCost(n, widthBytes)
	ctx.Clock.AdvanceCPU(c.MemNs) // memory stalls burn CPU ("user") time
}

// chargeRandomMemory charges n random accesses into a working set (hash
// probes).
func (ctx *ExecContext) chargeRandomMemory(n int, wsBytes int) {
	if !ctx.simulated() || n <= 0 {
		return
	}
	c := ctx.Machine.RandomAccessCost(n, wsBytes)
	ctx.Clock.AdvanceCPU(c.MemNs)
}

// chargeTableLoad charges the disk I/O of faulting a table in when the
// buffer pool is cold; subsequent reads are free until the buffers are
// flushed.
func (ctx *ExecContext) chargeTableLoad(t *Table) {
	if !ctx.simulated() || ctx.Buffers == nil {
		return
	}
	if ctx.Buffers.Resident(t.Name) {
		return
	}
	ctx.Clock.AdvanceIO(ctx.Machine.DiskReadNs(t.ByteSize()))
	ctx.Buffers.MarkResident(t.Name)
}

// Engine executes logical plans.
type Engine interface {
	// Name identifies the engine in profiles and reports.
	Name() string
	// Run executes the plan and returns the materialized result.
	Run(ctx *ExecContext, plan Node) (*Table, error)
}

// Run is a convenience that builds a plan's result table with either
// engine, validating inputs.
func Run(ctx *ExecContext, e Engine, plan Node) (*Table, error) {
	if ctx == nil || ctx.DB == nil {
		return nil, fmt.Errorf("vdb: nil execution context or catalog")
	}
	if plan == nil {
		return nil, fmt.Errorf("vdb: nil plan")
	}
	return e.Run(ctx, plan)
}

// EmitResult charges the output-sink cost for shipping a result's rendered
// CSV to the given sink and returns the byte count — the server/client/
// terminal distinction of the paper's T1.
func EmitResult(ctx *ExecContext, t *Table, sink hwsim.Sink) int64 {
	csv := t.CSV()
	bytes := int64(len(csv))
	if ctx.simulated() {
		cpu, io := ctx.Machine.OutputNs(sink, bytes)
		ctx.Clock.AdvanceCPU(cpu)
		ctx.Clock.AdvanceIO(io)
	}
	return bytes
}
