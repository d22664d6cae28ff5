package tpch

import (
	"math"
	"testing"

	"repro/internal/vdb"
)

func genSmall(t *testing.T) *vdb.DB {
	t.Helper()
	db, err := Gen(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGenValidation(t *testing.T) {
	if _, err := Gen(0, 1); err == nil {
		t.Error("sf=0 should error")
	}
	if _, err := Gen(-1, 1); err == nil {
		t.Error("sf<0 should error")
	}
}

func TestGenTablesAndSizes(t *testing.T) {
	db := genSmall(t)
	want := []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}
	names := db.TableNames()
	if len(names) != len(want) {
		t.Fatalf("tables = %v", names)
	}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("table %d = %s, want %s", i, names[i], w)
		}
	}
	region, _ := db.Table("region")
	if region.NumRows() != 5 {
		t.Errorf("region rows = %d", region.NumRows())
	}
	nation, _ := db.Table("nation")
	if nation.NumRows() != 25 {
		t.Errorf("nation rows = %d", nation.NumRows())
	}
	part, _ := db.Table("part")
	ps, _ := db.Table("partsupp")
	if ps.NumRows() != 4*part.NumRows() {
		t.Errorf("partsupp rows = %d, want 4x part (%d)", ps.NumRows(), part.NumRows())
	}
	orders, _ := db.Table("orders")
	li, _ := db.Table("lineitem")
	ratio := float64(li.NumRows()) / float64(orders.NumRows())
	if ratio < 2 || ratio > 6 {
		t.Errorf("lineitem/orders ratio = %.1f, want ~4", ratio)
	}
}

func TestGenScales(t *testing.T) {
	small, err := Gen(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Gen(0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := small.Table("lineitem")
	lb, _ := big.Table("lineitem")
	ratio := float64(lb.NumRows()) / float64(ls.NumRows())
	if ratio < 3 || ratio > 5 {
		t.Errorf("4x scale factor changed lineitem by %.1fx", ratio)
	}
}

func TestGenDeterministic(t *testing.T) {
	a, err := Gen(0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Gen(0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	la, _ := a.Table("lineitem")
	lb, _ := b.Table("lineitem")
	if la.CSV() != lb.CSV() {
		t.Error("same seed should generate identical data")
	}
	c, err := Gen(0.02, 8)
	if err != nil {
		t.Fatal(err)
	}
	lc, _ := c.Table("lineitem")
	if la.CSV() == lc.CSV() {
		t.Error("different seeds should differ")
	}
}

func TestGenReferentialIntegrity(t *testing.T) {
	db := genSmall(t)
	inRange := func(table, col string, lo, hi int64) {
		t.Helper()
		tab, err := db.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		c, err := tab.Column(col)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range c.Ints {
			if v < lo || v > hi {
				t.Fatalf("%s.%s value %d outside [%d,%d]", table, col, v, lo, hi)
			}
		}
	}
	supp, _ := db.Table("supplier")
	cust, _ := db.Table("customer")
	part, _ := db.Table("part")
	orders, _ := db.Table("orders")
	inRange("orders", "o_custkey", 1, int64(cust.NumRows()))
	inRange("lineitem", "l_orderkey", 1, int64(orders.NumRows()))
	inRange("lineitem", "l_partkey", 1, int64(part.NumRows()))
	inRange("lineitem", "l_suppkey", 1, int64(supp.NumRows()))
	inRange("partsupp", "ps_partkey", 1, int64(part.NumRows()))
	inRange("partsupp", "ps_suppkey", 1, int64(supp.NumRows()))
	inRange("supplier", "s_nationkey", 0, 24)
	inRange("customer", "c_nationkey", 0, 24)
	inRange("nation", "n_regionkey", 0, 4)
}

func TestDateHelpers(t *testing.T) {
	if Date(1992, 1, 1) != 0 {
		t.Errorf("epoch = %d", Date(1992, 1, 1))
	}
	if Date(1993, 1, 1) != 365 {
		t.Errorf("1993 = %d", Date(1993, 1, 1))
	}
	if !(Date(1994, 5, 1) < Date(1994, 6, 1)) {
		t.Error("date ordering")
	}
}

func TestQAccessor(t *testing.T) {
	q, err := Q(1)
	if err != nil || q.Num != 1 {
		t.Errorf("Q(1) = %+v, %v", q, err)
	}
	if _, err := Q(0); err == nil {
		t.Error("Q(0) should error")
	}
	if _, err := Q(23); err == nil {
		t.Error("Q(23) should error")
	}
}

// TestAll22QueriesBothEngines is the big integration check: every query
// analog runs on both engines and the engines agree exactly.
func TestAll22QueriesBothEngines(t *testing.T) {
	db := genSmall(t)
	for _, q := range Queries() {
		rowRes, err := vdb.Run(vdb.NewContext(db), vdb.RowEngine{}, q.Plan)
		if err != nil {
			t.Fatalf("Q%d (%s) row engine: %v", q.Num, q.Name, err)
		}
		colRes, err := vdb.Run(vdb.NewContext(db), vdb.ColumnEngine{}, q.Plan)
		if err != nil {
			t.Fatalf("Q%d (%s) column engine: %v", q.Num, q.Name, err)
		}
		a, b := rowRes.SortedRows(), colRes.SortedRows()
		if len(a) != len(b) {
			t.Fatalf("Q%d: engines disagree on rows: %d vs %d", q.Num, len(a), len(b))
		}
		for i := range a {
			for j := range a[i] {
				va, vb := a[i][j], b[i][j]
				equal := va.Equal(vb)
				if !equal && va.Typ == vdb.TFloat && vb.Typ == vdb.TFloat {
					// Float aggregation order may differ between engines.
					equal = math.Abs(va.F-vb.F) <= 1e-6*(1+math.Abs(va.F))
				}
				if !equal {
					t.Fatalf("Q%d row %d col %d: %v vs %v", q.Num, i, j, va, vb)
				}
			}
		}
	}
}

// TestQ1ReferenceAnswer recomputes Q1 independently (straight Go loops over
// the generated data) and compares with the engine result.
func TestQ1ReferenceAnswer(t *testing.T) {
	db := genSmall(t)
	li, _ := db.Table("lineitem")
	flag, _ := li.Column("l_returnflag")
	status, _ := li.Column("l_linestatus")
	qty, _ := li.Column("l_quantity")
	price, _ := li.Column("l_extendedprice")
	disc, _ := li.Column("l_discount")
	ship, _ := li.Column("l_shipdate")
	cutoff := Date(1998, 9, 2) - 90

	type acc struct {
		sumQty, sumPrice, sumDisc float64
		n                         int64
	}
	ref := map[string]*acc{}
	for i := 0; i < li.NumRows(); i++ {
		if ship.Ints[i] > cutoff {
			continue
		}
		k := flag.Strs[i] + "|" + status.Strs[i]
		a := ref[k]
		if a == nil {
			a = &acc{}
			ref[k] = a
		}
		a.sumQty += float64(qty.Ints[i])
		a.sumPrice += price.Floats[i]
		a.sumDisc += price.Floats[i] * (1 - disc.Floats[i])
		a.n++
	}

	q, _ := Q(1)
	res, err := vdb.Run(vdb.NewContext(db), vdb.ColumnEngine{}, q.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != len(ref) {
		t.Fatalf("groups = %d, want %d", res.NumRows(), len(ref))
	}
	rf, _ := res.Column("l_returnflag")
	rs, _ := res.Column("l_linestatus")
	sq, _ := res.Column("sum_qty")
	sp, _ := res.Column("sum_base_price")
	sd, _ := res.Column("sum_disc_price")
	co, _ := res.Column("count_order")
	for i := 0; i < res.NumRows(); i++ {
		k := rf.Strs[i] + "|" + rs.Strs[i]
		a := ref[k]
		if a == nil {
			t.Fatalf("unexpected group %q", k)
		}
		if got := float64(sq.Ints[i]); got != a.sumQty {
			t.Errorf("%s sum_qty = %g, want %g", k, got, a.sumQty)
		}
		if rel := math.Abs(sp.Floats[i]-a.sumPrice) / a.sumPrice; rel > 1e-9 {
			t.Errorf("%s sum_base_price off by %g", k, rel)
		}
		if rel := math.Abs(sd.Floats[i]-a.sumDisc) / a.sumDisc; rel > 1e-9 {
			t.Errorf("%s sum_disc_price off by %g", k, rel)
		}
		if co.Ints[i] != a.n {
			t.Errorf("%s count = %d, want %d", k, co.Ints[i], a.n)
		}
	}
}

// TestQ6ReferenceAnswer does the same for Q6.
func TestQ6ReferenceAnswer(t *testing.T) {
	db := genSmall(t)
	li, _ := db.Table("lineitem")
	price, _ := li.Column("l_extendedprice")
	disc, _ := li.Column("l_discount")
	qty, _ := li.Column("l_quantity")
	ship, _ := li.Column("l_shipdate")
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	var want float64
	for i := 0; i < li.NumRows(); i++ {
		if ship.Ints[i] >= lo && ship.Ints[i] < hi &&
			disc.Floats[i] >= 0.05 && disc.Floats[i] <= 0.07 && qty.Ints[i] < 24 {
			want += price.Floats[i] * disc.Floats[i]
		}
	}
	q, _ := Q(6)
	res, err := vdb.Run(vdb.NewContext(db), vdb.RowEngine{}, q.Plan)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Cols[0].Floats[0]
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Errorf("Q6 revenue = %g, want %g", got, want)
	}
	if want == 0 {
		t.Error("reference revenue is zero; generator ranges too narrow to exercise Q6")
	}
}

// TestQueriesReturnRows guards against degenerate analogs: every query
// must produce at least one row on a reasonably sized instance (otherwise
// its selectivities are broken and its benchmark is meaningless).
func TestQueriesReturnRows(t *testing.T) {
	db, err := Gen(0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries() {
		res, err := vdb.Run(vdb.NewContext(db), vdb.ColumnEngine{}, q.Plan)
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		if res.NumRows() == 0 {
			t.Errorf("Q%d (%s) returned no rows at sf=0.1", q.Num, q.Name)
		}
	}
}
