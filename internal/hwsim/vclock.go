package hwsim

import (
	"time"

	"repro/internal/measure"
)

// VirtualClock is a deterministic simulated clock. Cost models advance it
// explicitly; nothing ever reads the wall clock. It implements
// measure.SplitClock, decomposing elapsed time into CPU ("user") time and
// I/O wait — the decomposition behind the paper's user-vs-real tables.
//
// VirtualClock is not safe for concurrent use; simulated executions are
// single-threaded by design so results are bit-stable.
type VirtualClock struct {
	cpuNs float64
	ioNs  float64
}

// NewVirtualClock returns a clock at zero.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// AdvanceCPU charges ns nanoseconds of CPU (user) time. Negative charges
// are ignored.
func (c *VirtualClock) AdvanceCPU(ns float64) {
	if ns > 0 {
		c.cpuNs += ns
	}
}

// AdvanceIO charges ns nanoseconds of I/O wait. Negative charges are
// ignored.
func (c *VirtualClock) AdvanceIO(ns float64) {
	if ns > 0 {
		c.ioNs += ns
	}
}

// Now returns total simulated real time: CPU plus I/O wait.
func (c *VirtualClock) Now() time.Duration {
	return time.Duration(c.cpuNs+c.ioNs) * time.Nanosecond
}

// User returns accumulated simulated CPU time.
func (c *VirtualClock) User() time.Duration {
	return time.Duration(c.cpuNs) * time.Nanosecond
}

// IOWait returns accumulated simulated I/O wait. Artifacts read User
// and Now; the hwsim and vdb tests check the I/O share through it.
func (c *VirtualClock) IOWait() time.Duration {
	return time.Duration(c.ioNs) * time.Nanosecond
}

// Reset zeroes the clock.
func (c *VirtualClock) Reset() { c.cpuNs, c.ioNs = 0, 0 }

var _ measure.SplitClock = (*VirtualClock)(nil)
