package measure

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock with user/IO split, standing in
// for hwsim.VirtualClock (measure cannot import hwsim: hwsim imports
// measure).
type fakeClock struct {
	cpu, io time.Duration
}

func (c *fakeClock) Now() time.Duration    { return c.cpu + c.io }
func (c *fakeClock) User() time.Duration   { return c.cpu }
func (c *fakeClock) IOWait() time.Duration { return c.io }

func TestStopwatchSplit(t *testing.T) {
	c := &fakeClock{}
	sw := NewStopwatch(c)
	c.cpu += 30 * time.Millisecond
	c.io += 70 * time.Millisecond
	s := sw.Sample()
	if s.Real != 100*time.Millisecond {
		t.Errorf("real = %v", s.Real)
	}
	if s.User != 30*time.Millisecond || s.IO != 70*time.Millisecond {
		t.Errorf("split = %v user, %v io", s.User, s.IO)
	}
	sw.Restart()
	c.cpu += 5 * time.Millisecond
	if got := sw.Elapsed(); got != 5*time.Millisecond {
		t.Errorf("after restart elapsed = %v", got)
	}
}

// plainClock is a Clock without the user/IO split.
type plainClock struct{ t time.Duration }

func (c *plainClock) Now() time.Duration { return c.t }

func TestStopwatchPlainClock(t *testing.T) {
	c := &plainClock{}
	sw := NewStopwatch(c)
	c.t += 40 * time.Millisecond
	s := sw.Sample()
	if s.User != 0 || s.IO != 0 {
		t.Errorf("plain clock should have zero split, got %+v", s)
	}
	if s.Real != 40*time.Millisecond {
		t.Errorf("real = %v", s.Real)
	}
}

func TestSampleAdd(t *testing.T) {
	a := Sample{Real: 1, User: 2, IO: 3}
	b := Sample{Real: 10, User: 20, IO: 30}
	got := a.Add(b)
	if got != (Sample{Real: 11, User: 22, IO: 33}) {
		t.Errorf("Add = %+v", got)
	}
}

// hotColdTarget simulates a buffered table: a cold run pays I/O, a hot run
// doesn't. Mirrors the paper's T2 structure.
type hotColdTarget struct {
	clock  *fakeClock
	warm   bool
	resets []RunState
	runs   int
}

func (tg *hotColdTarget) Reset(state RunState) error {
	tg.resets = append(tg.resets, state)
	tg.warm = state == Hot
	return nil
}

func (tg *hotColdTarget) Run() error {
	tg.runs++
	tg.clock.cpu += 100 * time.Millisecond
	if !tg.warm {
		tg.clock.io += 900 * time.Millisecond
		tg.warm = true // a run warms the buffers
	}
	return nil
}

func TestProtocolCold(t *testing.T) {
	c := &fakeClock{}
	tg := &hotColdTarget{clock: c}
	res, err := ColdSingle(c).Run(tg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen.User != 100*time.Millisecond {
		t.Errorf("cold user = %v", res.Chosen.User)
	}
	if res.Chosen.Real != 1000*time.Millisecond {
		t.Errorf("cold real = %v", res.Chosen.Real)
	}
	if len(tg.resets) != 1 || tg.resets[0] != Cold {
		t.Errorf("resets = %v", tg.resets)
	}
}

func TestProtocolColdEveryRun(t *testing.T) {
	c := &fakeClock{}
	tg := &hotColdTarget{clock: c}
	p := Protocol{Clock: c, State: Cold, Runs: 3, Pick: PickLast}
	res, err := p.Run(tg)
	if err != nil {
		t.Fatal(err)
	}
	// Every run must have been reset cold: all runs pay the I/O.
	for i, s := range res.Samples {
		if s.Real != 1000*time.Millisecond {
			t.Errorf("run %d real = %v, want 1s", i, s.Real)
		}
	}
	if len(tg.resets) != 3 {
		t.Errorf("resets = %d, want 3", len(tg.resets))
	}
}

func TestProtocolHotLastOfThree(t *testing.T) {
	c := &fakeClock{}
	tg := &hotColdTarget{clock: c, warm: false}
	// Simulate the paper's protocol but with hot reset leaving buffers
	// cold initially: first run pays I/O, later runs don't. Using
	// PickLast skips the cold first run.
	p := Protocol{Clock: c, State: Hot, Runs: 3, Pick: PickLast}
	// Hot reset marks warm; to exercise warming, override: reset cold.
	tg.warm = false
	res, err := p.Run(tg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen.Real != 100*time.Millisecond {
		t.Errorf("hot last-of-3 real = %v, want 100ms", res.Chosen.Real)
	}
	if res.Chosen.User != res.Chosen.Real {
		t.Errorf("hot run should have real == user, got %+v", res.Chosen)
	}
}

func TestProtocolWarmup(t *testing.T) {
	c := &fakeClock{}
	runs := 0
	tg := TargetFuncs{
		ResetFunc: func(state RunState) error { return nil },
		RunFunc: func() error {
			runs++
			c.cpu += 10 * time.Millisecond
			return nil
		},
	}
	p := Protocol{Clock: c, State: Hot, Warmup: 2, Runs: 3, Pick: PickMean}
	res, err := p.Run(tg)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 5 {
		t.Errorf("total runs = %d, want 5 (2 warmup + 3 measured)", runs)
	}
	if len(res.Samples) != 3 {
		t.Errorf("measured samples = %d, want 3", len(res.Samples))
	}
	if res.Chosen.Real != 10*time.Millisecond {
		t.Errorf("mean = %v", res.Chosen.Real)
	}
}

func TestPicks(t *testing.T) {
	samples := []Sample{
		{Real: 30 * time.Millisecond},
		{Real: 10 * time.Millisecond},
		{Real: 20 * time.Millisecond},
	}
	if got := pickSample(PickLast, samples); got.Real != 20*time.Millisecond {
		t.Errorf("last = %v", got.Real)
	}
	if got := pickSample(PickMin, samples); got.Real != 10*time.Millisecond {
		t.Errorf("min = %v", got.Real)
	}
	if got := pickSample(PickMedian, samples); got.Real != 20*time.Millisecond {
		t.Errorf("median = %v", got.Real)
	}
	if got := pickSample(PickMean, samples); got.Real != 20*time.Millisecond {
		t.Errorf("mean = %v", got.Real)
	}
}

func TestProtocolErrors(t *testing.T) {
	c := &fakeClock{}
	ok := TargetFuncs{RunFunc: func() error { return nil }}
	if _, err := (Protocol{State: Hot, Runs: 1}).Run(ok); err == nil {
		t.Error("nil clock should error")
	}
	if _, err := (Protocol{Clock: c, Runs: 0}).Run(ok); err == nil {
		t.Error("zero runs should error")
	}
	boom := errors.New("boom")
	failRun := TargetFuncs{RunFunc: func() error { return boom }}
	if _, err := (Protocol{Clock: c, State: Hot, Runs: 1}).Run(failRun); !errors.Is(err, boom) {
		t.Errorf("run error not propagated: %v", err)
	}
	failReset := TargetFuncs{
		ResetFunc: func(RunState) error { return boom },
		RunFunc:   func() error { return nil },
	}
	if _, err := (Protocol{Clock: c, State: Cold, Runs: 1}).Run(failReset); !errors.Is(err, boom) {
		t.Errorf("reset error not propagated: %v", err)
	}
	if _, err := (Protocol{Clock: c, State: Hot, Runs: 1}).Run(TargetFuncs{}); err == nil {
		t.Error("nil RunFunc should error")
	}
	failWarm := TargetFuncs{RunFunc: func() error { return boom }}
	if _, err := (Protocol{Clock: c, State: Hot, Warmup: 1, Runs: 1}).Run(failWarm); !errors.Is(err, boom) {
		t.Errorf("warmup error not propagated: %v", err)
	}
}

func TestEstimateResolution(t *testing.T) {
	// A clock ticking 1ms per read has 1ms resolution.
	n := time.Duration(0)
	tick := clockFunc(func() time.Duration {
		n += time.Millisecond
		return n
	})
	if got := EstimateResolution(tick, 100); got != time.Millisecond {
		t.Errorf("resolution = %v, want 1ms", got)
	}
	// A frozen clock has no observable resolution.
	frozen := clockFunc(func() time.Duration { return 42 })
	if got := EstimateResolution(frozen, 100); got != 0 {
		t.Errorf("frozen resolution = %v, want 0", got)
	}
	// maxProbes <= 0 uses the default and still terminates.
	if got := EstimateResolution(frozen, 0); got != 0 {
		t.Errorf("default probes resolution = %v", got)
	}
}

type clockFunc func() time.Duration

func (f clockFunc) Now() time.Duration { return f() }

func TestStringers(t *testing.T) {
	if Cold.String() != "cold" || Hot.String() != "hot" {
		t.Error("RunState strings")
	}
	for p, want := range map[Pick]string{PickLast: "last", PickMedian: "median", PickMean: "mean", PickMin: "min"} {
		if p.String() != want {
			t.Errorf("%v string = %q", int(p), p.String())
		}
	}
	if Pick(9).String() == "" {
		t.Error("unknown pick should render")
	}
}
