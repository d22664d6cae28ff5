package vdb

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hwsim"
)

func bigDB(t *testing.T, rows int) *DB {
	t.Helper()
	ids := make([]int64, rows)
	vals := make([]float64, rows)
	grp := make([]string, rows)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = float64(i%97) * 1.5
		grp[i] = string(rune('a' + i%5))
	}
	tab, err := NewTable("big",
		NewIntColumn("id", ids),
		NewFloatColumn("val", vals),
		NewStringColumn("grp", grp),
	)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	if err := db.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	return db
}

func simCtx(db *DB) *ExecContext {
	m := hwsim.PentiumM2005
	return NewSimContext(db, &m, hwsim.NewVirtualClock())
}

func TestColdRunPaysIO(t *testing.T) {
	db := bigDB(t, 10000)
	plan := Scan("big").Aggregate(MaxOf(Col("val"), "m")).Node()
	ctx := simCtx(db)

	// Cold: first execution pays disk I/O.
	if _, err := Run(ctx, ColumnEngine{}, plan); err != nil {
		t.Fatal(err)
	}
	coldIO := ctx.Clock.IOWait()
	if coldIO <= 0 {
		t.Fatal("cold run should pay I/O wait")
	}
	coldUser := ctx.Clock.User()

	// Hot: second execution adds no I/O.
	if _, err := Run(ctx, ColumnEngine{}, plan); err != nil {
		t.Fatal(err)
	}
	if ctx.Clock.IOWait() != coldIO {
		t.Errorf("hot run added I/O: %v -> %v", coldIO, ctx.Clock.IOWait())
	}
	hotUser := ctx.Clock.User() - coldUser
	if hotUser <= 0 {
		t.Error("hot run should still burn CPU")
	}

	// Flush: cold again.
	ctx.Buffers.FlushAll()
	if _, err := Run(ctx, ColumnEngine{}, plan); err != nil {
		t.Fatal(err)
	}
	if ctx.Clock.IOWait() != 2*coldIO {
		t.Errorf("flushed run should pay the same I/O again: %v vs %v", ctx.Clock.IOWait(), 2*coldIO)
	}
}

func TestWarmAllAvoidsIO(t *testing.T) {
	db := bigDB(t, 1000)
	ctx := simCtx(db)
	ctx.Buffers.WarmAll([]string{"big"})
	if _, err := Run(ctx, RowEngine{}, Scan("big").Node()); err != nil {
		t.Fatal(err)
	}
	if ctx.Clock.IOWait() != 0 {
		t.Errorf("warmed table should not pay I/O, got %v", ctx.Clock.IOWait())
	}
}

// TestDebugSlowerThanOptimized pins the paper's compiler-flag anecdote:
// the same plan on the same engine is slower under Debug, by a factor
// within the paper's observed range (roughly 1.1x-2.4x).
func TestDebugSlowerThanOptimized(t *testing.T) {
	db := bigDB(t, 20000)
	plan := Scan("big").
		Filter(Gt(Col("val"), Float(30))).
		GroupBy([]string{"grp"}, Sum(Col("val"), "s"), Count("n")).
		OrderBy(SortKey{Col: "s", Desc: true}).Node()

	for _, engine := range engines() {
		times := map[hwsim.BuildMode]time.Duration{}
		for _, mode := range []hwsim.BuildMode{Optimized, Debug} {
			ctx := simCtx(db)
			ctx.Mode = mode
			ctx.Buffers.WarmAll([]string{"big"})
			if _, err := Run(ctx, engine, plan); err != nil {
				t.Fatal(err)
			}
			times[mode] = ctx.Clock.User()
		}
		ratio := float64(times[Debug]) / float64(times[Optimized])
		if ratio < 1.05 || ratio > 2.5 {
			t.Errorf("%s: DBG/OPT ratio = %.2f, want in (1.05, 2.5)", engine.Name(), ratio)
		}
	}
}

const (
	Optimized = hwsim.Optimized
	Debug     = hwsim.Debug
)

// TestProfileShapes pins the paper's profiling figure: the row engine's
// time is dominated by per-tuple interpretation spread across operators,
// while the column engine spends proportionally more of its time in data
// movement (scan/materialization).
func TestProfileShapes(t *testing.T) {
	db := bigDB(t, 20000)
	plan := Scan("big").
		Filter(Gt(Col("val"), Float(10))).
		GroupBy([]string{"grp"}, Sum(Col("val"), "s")).Node()

	profiles := map[string]*Profiler{}
	for _, engine := range engines() {
		ctx := simCtx(db)
		ctx.Buffers.WarmAll([]string{"big"})
		ctx.Profiler = NewProfiler(engine.Name(), ctx.Clock)
		if _, err := Run(ctx, engine, plan); err != nil {
			t.Fatal(err)
		}
		profiles[engine.Name()] = ctx.Profiler
	}
	row := profiles["tuple-at-a-time"]
	col := profiles["column-at-a-time"]
	if row.TotalTime() <= col.TotalTime() {
		t.Errorf("tuple-at-a-time (%v) should be slower than column-at-a-time (%v)",
			row.TotalTime(), col.TotalTime())
	}
	// Rendered profile includes per-operator lines with percentages.
	out := row.String()
	if !strings.Contains(out, "GroupBy") || !strings.Contains(out, "%") {
		t.Errorf("row profile rendering:\n%s", out)
	}
	if len(col.Spans) < 3 {
		t.Errorf("column profile spans = %d", len(col.Spans))
	}
	// Self times per op class are available for figure generation.
	if len(row.SelfTimeByOp()) == 0 || len(col.SelfTimeByOp()) == 0 {
		t.Error("empty self-time breakdowns")
	}
}

func TestEmitResultSinks(t *testing.T) {
	db := bigDB(t, 5000)
	plan := Scan("big").Node() // large result
	var results []*Table
	{
		ctx := simCtx(db)
		ctx.Buffers.WarmAll([]string{"big"})
		res, err := Run(ctx, ColumnEngine{}, plan)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	times := map[hwsim.Sink]time.Duration{}
	for _, sink := range []hwsim.Sink{hwsim.SinkServerFile, hwsim.SinkClientFile, hwsim.SinkClientTerminal} {
		ctx := simCtx(db)
		ctx.Buffers.WarmAll([]string{"big"})
		res, err := Run(ctx, ColumnEngine{}, plan)
		if err != nil {
			t.Fatal(err)
		}
		n := EmitResult(ctx, res, sink)
		if n <= 0 {
			t.Fatal("no output bytes")
		}
		times[sink] = ctx.Clock.Now()
	}
	if !(times[hwsim.SinkServerFile] < times[hwsim.SinkClientFile] &&
		times[hwsim.SinkClientFile] < times[hwsim.SinkClientTerminal]) {
		t.Errorf("sink time ordering violated: %v", times)
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	s := p.Begin("x")
	p.End(s, 0)
	p.Record("y", 0, 0, 0, 0)
	if p.TotalTime() != 0 {
		t.Error("nil profiler total should be 0")
	}
	empty := NewProfiler("e", hwsim.NewVirtualClock())
	if empty.String() != "(empty profile)" {
		t.Errorf("empty profile = %q", empty.String())
	}
}

// TestEnginesEquivalentQuick is the central correctness property: for
// arbitrary generated tables and a filter+aggregate query, the two engines
// produce identical results.
func TestEnginesEquivalentQuick(t *testing.T) {
	f := func(ints []int16, threshold int16) bool {
		if len(ints) == 0 {
			return true
		}
		n := len(ints)
		ids := make([]int64, n)
		vals := make([]float64, n)
		grp := make([]string, n)
		for i, v := range ints {
			ids[i] = int64(i)
			vals[i] = float64(v)
			grp[i] = string(rune('a' + (int(v)%3+3)%3))
		}
		tab, err := NewTable("t",
			NewIntColumn("id", ids),
			NewFloatColumn("v", vals),
			NewStringColumn("g", grp))
		if err != nil {
			return false
		}
		db := NewDB()
		if err := db.AddTable(tab); err != nil {
			return false
		}
		plan := Scan("t").
			Filter(Ge(Col("v"), Float(float64(threshold)))).
			GroupBy([]string{"g"}, Sum(Col("v"), "s"), Count("n"), MinOf(Col("id"), "lo")).
			Node()
		r1, err1 := Run(NewContext(db), RowEngine{}, plan)
		r2, err2 := Run(NewContext(db), ColumnEngine{}, plan)
		if err1 != nil || err2 != nil {
			return false
		}
		a, b := r1.SortedRows(), r2.SortedRows()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			for j := range a[i] {
				if !a[i][j].Equal(b[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSimulatedDeterminism: two identical simulated executions advance the
// clock by exactly the same amount — bit-stable repeatability.
func TestSimulatedDeterminism(t *testing.T) {
	db := bigDB(t, 5000)
	plan := Scan("big").
		Filter(Lt(Col("val"), Float(100))).
		GroupBy([]string{"grp"}, Avg(Col("val"), "a")).Node()
	var times []time.Duration
	for i := 0; i < 2; i++ {
		ctx := simCtx(db)
		if _, err := Run(ctx, RowEngine{}, plan); err != nil {
			t.Fatal(err)
		}
		times = append(times, ctx.Clock.Now())
	}
	if times[0] != times[1] {
		t.Errorf("simulated times differ: %v vs %v", times[0], times[1])
	}
}

// TestScanChargesWidthOncePerOpen holds the row engine's scan to one
// WidthBytes call per column per Open: a string column's width is a pass
// over all its values, so a call per row made a scan quadratic in its rows.
// It counts calls, not time, so it does not depend on the machine.
func TestScanChargesWidthOncePerOpen(t *testing.T) {
	plan := Scan("big").Filter(Gt(Col("val"), Float(1e9))).Node()
	calls := make(map[int]int64)
	for _, rows := range []int{1000, 10000} {
		db := bigDB(t, rows)
		n := countWidthBytes(t)
		if _, err := Run(simCtx(db), RowEngine{}, plan); err != nil {
			t.Fatal(err)
		}
		calls[rows] = n.Load()
	}
	if calls[1000] == 0 || calls[10000] != calls[1000] {
		t.Fatalf("WidthBytes calls by rows = %v, want the same nonzero count at 1 000 and 10 000 rows", calls)
	}
}
