package tpch

import (
	"testing"
	"time"

	"repro/internal/hwsim"
	"repro/internal/vdb"
)

// simulatedTime runs a query hot on the laptop model and returns user time.
func simulatedTime(t *testing.T, db *vdb.DB, qn int) time.Duration {
	t.Helper()
	q, err := Q(qn)
	if err != nil {
		t.Fatal(err)
	}
	m := hwsim.PentiumM2005
	ctx := vdb.NewSimContext(db, &m, hwsim.NewVirtualClock())
	ctx.Buffers.WarmAll(db.TableNames())
	if _, err := vdb.Run(ctx, vdb.ColumnEngine{}, q.Plan); err != nil {
		t.Fatal(err)
	}
	return ctx.Clock.User()
}

// TestScaleUpScanBound: a scan-bound query's simulated cost scales roughly
// linearly with the scale factor — the paper's scale-up metric near 1.
func TestScaleUpScanBound(t *testing.T) {
	small, err := Gen(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Gen(0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, qn := range []int{1, 6} {
		ts := simulatedTime(t, small, qn)
		tb := simulatedTime(t, big, qn)
		ls, _ := small.Table("lineitem")
		lb, _ := big.Table("lineitem")
		// (work ratio) / (time ratio): 1 is perfect scale-up.
		scaleUp := (float64(lb.NumRows()) / float64(ls.NumRows())) / (float64(tb) / float64(ts))
		if scaleUp < 0.7 || scaleUp > 1.4 {
			t.Errorf("Q%d scale-up = %.2f, want ~1 (linear in data volume)", qn, scaleUp)
		}
	}
}

// TestSpeedupColumnOverRow: the paper's speed-up metric applied to the two
// engines on Q1 — and the ratio is stable across scale factors.
func TestSpeedupColumnOverRow(t *testing.T) {
	var ratios []float64
	for _, sf := range []float64{0.05, 0.1} {
		db, err := Gen(sf, 42)
		if err != nil {
			t.Fatal(err)
		}
		q, _ := Q(1)
		m := hwsim.PentiumM2005
		times := map[string]time.Duration{}
		for _, e := range []vdb.Engine{vdb.RowEngine{}, vdb.ColumnEngine{}} {
			ctx := vdb.NewSimContext(db, &m, hwsim.NewVirtualClock())
			ctx.Buffers.WarmAll(db.TableNames())
			if _, err := vdb.Run(ctx, e, q.Plan); err != nil {
				t.Fatal(err)
			}
			times[e.Name()] = ctx.Clock.User()
		}
		sp := float64(times["tuple-at-a-time"]) / float64(times["column-at-a-time"])
		if sp <= 1.5 {
			t.Errorf("sf=%g: column speedup = %.2f, want > 1.5", sf, sp)
		}
		ratios = append(ratios, sp)
	}
	if rel := ratios[0] / ratios[1]; rel < 0.8 || rel > 1.25 {
		t.Errorf("speedup unstable across scale: %.2f vs %.2f", ratios[0], ratios[1])
	}
}
