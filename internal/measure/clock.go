// Package measure implements the paper's "Metrics: what/how to measure"
// and "How to run" chapters: clocks and stopwatches, timer-resolution
// probing, wall/CPU/I-O time decomposition, and run protocols (cold runs,
// hot runs, warm-up, last-of-N / median-of-N selection, replication).
//
// Measurement is abstracted over a Clock; the paper's experiments run
// against a deterministic simulated clock (hwsim.VirtualClock), which is
// how this repository keeps every one of them repeatable.
package measure

import "time"

// Clock supplies the current time as a duration since an arbitrary fixed
// origin, such as hwsim.VirtualClock's simulated time.
type Clock interface {
	Now() time.Duration
}

// SplitClock additionally decomposes elapsed time the way /usr/bin/time
// does: "user" (CPU) versus "sys" (here: time blocked on I/O). Real time is
// Now(); for a virtual clock Now() == User() + IOWait().
type SplitClock interface {
	Clock
	// User returns accumulated CPU time.
	User() time.Duration
	// IOWait returns accumulated time blocked on I/O (the "sys"/idle
	// component that makes cold real time exceed cold user time).
	IOWait() time.Duration
}

// Sample is one measured run, decomposed the way the paper's tables are:
// Real is wall-clock time; User is CPU time; IO is time blocked on I/O.
// For clocks without a split, User and IO are zero and only Real is
// meaningful.
type Sample struct {
	Real time.Duration
	User time.Duration
	IO   time.Duration
}

// Add returns the component-wise sum of two samples.
func (s Sample) Add(o Sample) Sample {
	return Sample{Real: s.Real + o.Real, User: s.User + o.User, IO: s.IO + o.IO}
}

// Stopwatch measures intervals against a Clock, capturing the user/IO split
// when the clock supports it.
type Stopwatch struct {
	clock     Clock
	start     time.Duration
	startUser time.Duration
	startIO   time.Duration
}

// NewStopwatch returns a started stopwatch.
func NewStopwatch(c Clock) *Stopwatch {
	sw := &Stopwatch{clock: c}
	sw.Restart()
	return sw
}

// Restart re-anchors the stopwatch at the current clock reading.
func (sw *Stopwatch) Restart() {
	sw.start = sw.clock.Now()
	if sc, ok := sw.clock.(SplitClock); ok {
		sw.startUser = sc.User()
		sw.startIO = sc.IOWait()
	}
}

// Elapsed returns the real time since the last Restart.
func (sw *Stopwatch) Elapsed() time.Duration { return sw.clock.Now() - sw.start }

// Sample returns the full real/user/IO sample since the last Restart.
func (sw *Stopwatch) Sample() Sample {
	s := Sample{Real: sw.Elapsed()}
	if sc, ok := sw.clock.(SplitClock); ok {
		s.User = sc.User() - sw.startUser
		s.IO = sc.IOWait() - sw.startIO
	}
	return s
}

// EstimateResolution probes the clock's effective resolution: the smallest
// observable nonzero increment across up to maxProbes consecutive reads.
// The paper warns that default timer resolution "can be as low as 10
// milliseconds"; probing it tells you whether your runs are long enough to
// measure at all.
func EstimateResolution(c Clock, maxProbes int) time.Duration {
	if maxProbes <= 0 {
		maxProbes = 1 << 16
	}
	best := time.Duration(0)
	prev := c.Now()
	for i := 0; i < maxProbes; i++ {
		now := c.Now()
		if d := now - prev; d > 0 {
			if best == 0 || d < best {
				best = d
			}
			prev = now
		}
	}
	return best
}
