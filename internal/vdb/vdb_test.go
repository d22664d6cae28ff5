package vdb

import "testing"

// testDB builds a small two-table catalog used across the engine tests.
func testDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	orders, err := NewTable("orders",
		NewIntColumn("o_id", []int64{1, 2, 3, 4, 5}),
		NewIntColumn("o_cust", []int64{10, 20, 10, 30, 20}),
		NewFloatColumn("o_total", []float64{100, 200, 150, 50, 300}),
		NewStringColumn("o_status", []string{"open", "done", "open", "done", "open"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	cust, err := NewTable("cust",
		NewIntColumn("c_id", []int64{10, 20, 30}),
		NewStringColumn("c_name", []string{"alice", "bob", "carol"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(orders); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(cust); err != nil {
		t.Fatal(err)
	}
	return db
}

func engines() []Engine { return []Engine{RowEngine{}, ColumnEngine{}} }

// runBoth executes the plan on both engines and checks the results agree
// under canonical row ordering, returning the row-engine result.
func runBoth(t *testing.T, db *DB, plan Node) *Table {
	t.Helper()
	var results []*Table
	for _, e := range engines() {
		res, err := Run(NewContext(db), e, plan)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		results = append(results, res)
	}
	a, b := results[0].SortedRows(), results[1].SortedRows()
	if len(a) != len(b) {
		t.Fatalf("engines disagree on row count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				t.Fatalf("engines disagree at row %d col %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return results[0]
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable("t"); err == nil {
		t.Error("empty table should error")
	}
	if _, err := NewTable("t", NewIntColumn("", []int64{1})); err == nil {
		t.Error("unnamed column should error")
	}
	if _, err := NewTable("t", NewIntColumn("a", []int64{1}), NewIntColumn("a", []int64{2})); err == nil {
		t.Error("duplicate column should error")
	}
	if _, err := NewTable("t", NewIntColumn("a", []int64{1}), NewIntColumn("b", []int64{1, 2})); err == nil {
		t.Error("ragged columns should error")
	}
}

func TestDBCatalog(t *testing.T) {
	db := testDB(t)
	if _, err := db.Table("nope"); err == nil {
		t.Error("unknown table should error")
	}
	names := db.TableNames()
	if len(names) != 2 || names[0] != "orders" || names[1] != "cust" {
		t.Errorf("names = %v", names)
	}
	dup, _ := NewTable("orders", NewIntColumn("x", []int64{1}))
	if err := db.AddTable(dup); err == nil {
		t.Error("duplicate table should error")
	}
	if err := db.AddTable(nil); err == nil {
		t.Error("nil table should error")
	}
}

func TestScanBothEngines(t *testing.T) {
	db := testDB(t)
	res := runBoth(t, db, Scan("orders").Node())
	if res.NumRows() != 5 || len(res.Cols) != 4 {
		t.Errorf("scan result %dx%d", res.NumRows(), len(res.Cols))
	}
	// Projected scan.
	res2 := runBoth(t, db, Scan("orders", "o_id", "o_total").Node())
	if len(res2.Cols) != 2 {
		t.Errorf("projected scan cols = %d", len(res2.Cols))
	}
}

func TestFilterBothEngines(t *testing.T) {
	db := testDB(t)
	plan := Scan("orders").Filter(Gt(Col("o_total"), Float(120))).Node()
	res := runBoth(t, db, plan)
	if res.NumRows() != 3 {
		t.Errorf("filter rows = %d, want 3", res.NumRows())
	}
	// Compound predicate.
	plan2 := Scan("orders").
		Filter(And(Eq(Col("o_status"), Str("open")), Ge(Col("o_total"), Float(150)))).Node()
	res2 := runBoth(t, db, plan2)
	if res2.NumRows() != 2 {
		t.Errorf("compound filter rows = %d, want 2", res2.NumRows())
	}
	// OR / NOT.
	plan3 := Scan("orders").
		Filter(Or(Not(Eq(Col("o_status"), Str("open"))), Lt(Col("o_total"), Float(120)))).Node()
	res3 := runBoth(t, db, plan3)
	if res3.NumRows() != 3 {
		t.Errorf("or/not filter rows = %d, want 3", res3.NumRows())
	}
}

func TestProjectBothEngines(t *testing.T) {
	db := testDB(t)
	plan := Scan("orders").
		Project([]string{"id", "scaled"}, Col("o_id"), Mul(Col("o_total"), Float(1.1))).Node()
	res := runBoth(t, db, plan)
	if len(res.Cols) != 2 || res.Cols[1].Type != TFloat {
		t.Fatalf("project schema wrong: %v", res.ColumnNames())
	}
	v := res.Cols[1].Floats[0]
	if v < 109.9 || v > 110.1 {
		t.Errorf("scaled[0] = %g, want 110", v)
	}
}

func TestJoinBothEngines(t *testing.T) {
	db := testDB(t)
	plan := Scan("orders").Join(From(Scan("cust").Node()), "o_cust", "c_id").Node()
	res := runBoth(t, db, plan)
	if res.NumRows() != 5 {
		t.Errorf("join rows = %d, want 5", res.NumRows())
	}
	if len(res.Cols) != 6 {
		t.Errorf("join cols = %d, want 6", len(res.Cols))
	}
	// Join filtering: only matching keys survive.
	db2 := NewDB()
	left, _ := NewTable("l", NewIntColumn("lk", []int64{1, 2, 9}))
	right, _ := NewTable("r", NewIntColumn("rk", []int64{1, 1, 2}))
	if err := db2.AddTable(left); err != nil {
		t.Fatal(err)
	}
	if err := db2.AddTable(right); err != nil {
		t.Fatal(err)
	}
	res2 := runBoth(t, db2, Scan("l").Join(From(Scan("r").Node()), "lk", "rk").Node())
	if res2.NumRows() != 3 { // 1 matches twice, 2 once, 9 never
		t.Errorf("m:n join rows = %d, want 3", res2.NumRows())
	}
}

func TestStringJoin(t *testing.T) {
	db := NewDB()
	l, _ := NewTable("l", NewStringColumn("lk", []string{"a", "b"}))
	r, _ := NewTable("r", NewStringColumn("rk", []string{"b", "c"}))
	if err := db.AddTable(l); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(r); err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, db, Scan("l").Join(From(Scan("r").Node()), "lk", "rk").Node())
	if res.NumRows() != 1 {
		t.Errorf("string join rows = %d, want 1", res.NumRows())
	}
}

func TestGroupByBothEngines(t *testing.T) {
	db := testDB(t)
	plan := Scan("orders").GroupBy([]string{"o_status"},
		Sum(Col("o_total"), "total"),
		Count("n"),
		Avg(Col("o_total"), "avg_total"),
		MinOf(Col("o_total"), "min_total"),
		MaxOf(Col("o_total"), "max_total"),
	).Node()
	res := runBoth(t, db, plan)
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", res.NumRows())
	}
	// Verify the "open" group: totals 100+150+300=550, n=3, avg 183.33,
	// min 100 max 300.
	var found bool
	for i := 0; i < res.NumRows(); i++ {
		row := res.Row(i)
		if row[0].S != "open" {
			continue
		}
		found = true
		if row[1].AsFloat() != 550 || row[2].I != 3 {
			t.Errorf("open group sum/count = %v/%v", row[1], row[2])
		}
		if av := row[3].AsFloat(); av < 183 || av > 184 {
			t.Errorf("open avg = %v", av)
		}
		if row[4].AsFloat() != 100 || row[5].AsFloat() != 300 {
			t.Errorf("open min/max = %v/%v", row[4], row[5])
		}
	}
	if !found {
		t.Error("no 'open' group in result")
	}
}

func TestGlobalAggregateBothEngines(t *testing.T) {
	db := testDB(t)
	plan := Scan("orders").Aggregate(
		MaxOf(Col("o_total"), "max_total"),
		Sum(Col("o_id"), "sum_ids"),
		CountDistinct(Col("o_cust"), "n_cust"),
	).Node()
	res := runBoth(t, db, plan)
	if res.NumRows() != 1 {
		t.Fatalf("global agg rows = %d", res.NumRows())
	}
	row := res.Row(0)
	if row[0].AsFloat() != 300 {
		t.Errorf("max = %v", row[0])
	}
	if row[1].I != 15 {
		t.Errorf("sum ids = %v (int sum should stay int)", row[1])
	}
	if row[1].Typ != TInt {
		t.Errorf("sum over ints should be int, got %v", row[1].Typ)
	}
	if row[2].I != 3 {
		t.Errorf("count distinct = %v, want 3", row[2])
	}
}

func TestSortLimitBothEngines(t *testing.T) {
	db := testDB(t)
	plan := Scan("orders").
		OrderBy(SortKey{Col: "o_total", Desc: true}).
		Limit(2).Node()
	for _, e := range engines() {
		res, err := Run(NewContext(db), e, plan)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.NumRows() != 2 {
			t.Fatalf("%s: rows = %d", e.Name(), res.NumRows())
		}
		c, _ := res.Column("o_total")
		if c.Floats[0] != 300 || c.Floats[1] != 200 {
			t.Errorf("%s: top-2 = %v", e.Name(), c.Floats)
		}
	}
}

func TestMultiKeySort(t *testing.T) {
	db := testDB(t)
	plan := Scan("orders").
		OrderBy(SortKey{Col: "o_status"}, SortKey{Col: "o_total", Desc: true}).Node()
	for _, e := range engines() {
		res, err := Run(NewContext(db), e, plan)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := res.Column("o_status")
		tot, _ := res.Column("o_total")
		want := []struct {
			s string
			f float64
		}{{"done", 200}, {"done", 50}, {"open", 300}, {"open", 150}, {"open", 100}}
		for i, w := range want {
			if st.Strs[i] != w.s || tot.Floats[i] != w.f {
				t.Errorf("%s row %d = %s/%g, want %s/%g", e.Name(), i, st.Strs[i], tot.Floats[i], w.s, w.f)
			}
		}
	}
}

func TestLimitBeyondRows(t *testing.T) {
	db := testDB(t)
	res := runBoth(t, db, Scan("cust").Limit(100).Node())
	if res.NumRows() != 3 {
		t.Errorf("limit beyond rows = %d", res.NumRows())
	}
	res0 := runBoth(t, db, Scan("cust").Limit(0).Node())
	if res0.NumRows() != 0 {
		t.Errorf("limit 0 rows = %d", res0.NumRows())
	}
}

func TestLikeBothEngines(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		pred Expr
		want int
	}{
		{HasPrefix(Col("c_name"), "a"), 1},
		{Contains(Col("c_name"), "o"), 2}, // bob, carol
		{HasSuffix(Col("c_name"), "l"), 1},
	}
	for _, c := range cases {
		res := runBoth(t, db, Scan("cust").Filter(c.pred).Node())
		if res.NumRows() != c.want {
			t.Errorf("%s: rows = %d, want %d", c.pred, res.NumRows(), c.want)
		}
	}
}

func TestComplexPipelineBothEngines(t *testing.T) {
	db := testDB(t)
	// Join, filter, project, group, sort: all operators in one plan.
	plan := Scan("orders").
		Join(From(Scan("cust").Node()), "o_cust", "c_id").
		Filter(Ne(Col("c_name"), Str("carol"))).
		Project([]string{"name", "amount"}, Col("c_name"), Mul(Col("o_total"), Float(2))).
		GroupBy([]string{"name"}, Sum(Col("amount"), "total")).
		OrderBy(SortKey{Col: "total", Desc: true}).
		Node()
	res := runBoth(t, db, plan)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (alice, bob)", res.NumRows())
	}
	name, _ := res.Column("name")
	total, _ := res.Column("total")
	// alice: (100+150)*2 = 500; bob: (200+300)*2 = 1000.
	if name.Strs[0] != "bob" || total.Floats[0] != 1000 {
		t.Errorf("row 0 = %s/%g", name.Strs[0], total.Floats[0])
	}
	if name.Strs[1] != "alice" || total.Floats[1] != 500 {
		t.Errorf("row 1 = %s/%g", name.Strs[1], total.Floats[1])
	}
}

func TestPlanValidationErrors(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		name string
		plan Node
	}{
		{"unknown table", Scan("nope").Node()},
		{"unknown column in scan", Scan("orders", "bogus").Node()},
		{"unknown column in filter", Scan("orders").Filter(Gt(Col("bogus"), Int(1))).Node()},
		{"string arithmetic", Scan("orders").Project([]string{"x"}, Add(Col("o_status"), Int(1))).Node()},
		{"string/numeric compare", Scan("orders").Filter(Eq(Col("o_status"), Int(1))).Node()},
		{"like on numeric", Scan("orders").Filter(HasPrefix(Col("o_total"), "1")).Node()},
		{"empty project", Scan("orders").Project(nil).Node()},
		{"dup project names", Scan("orders").Project([]string{"x", "x"}, Col("o_id"), Col("o_cust")).Node()},
		{"join bad left key", Scan("orders").Join(From(Scan("cust").Node()), "bogus", "c_id").Node()},
		{"join bad right key", Scan("orders").Join(From(Scan("cust").Node()), "o_cust", "bogus").Node()},
		{"join float key", Scan("orders").Join(From(Scan("orders2").Node()), "o_total", "o_total").Node()},
		{"join key type mismatch", Scan("orders").Join(From(Scan("cust").Node()), "o_status", "c_id").Node()},
		{"join dup columns", Scan("orders").Join(From(Scan("orders").Node()), "o_id", "o_id").Node()},
		{"agg no funcs", Scan("orders").GroupBy([]string{"o_status"}).Node()},
		{"agg bad group col", Scan("orders").GroupBy([]string{"bogus"}, Count("n")).Node()},
		{"sum of string", Scan("orders").Aggregate(Sum(Col("o_status"), "s")).Node()},
		{"avg of string", Scan("orders").Aggregate(Avg(Col("o_status"), "s")).Node()},
		{"sum without expr", Scan("orders").Aggregate(AggSpec{Func: AggSum, Name: "s"}).Node()},
		{"count_distinct without expr", Scan("orders").Aggregate(AggSpec{Func: AggCountDistinct, Name: "s"}).Node()},
		{"dup agg name", Scan("orders").GroupBy([]string{"o_status"}, Count("o_status")).Node()},
		{"bad sort key", Scan("orders").OrderBy(SortKey{Col: "bogus"}).Node()},
		{"negative limit", Scan("orders").Limit(-1).Node()},
	}
	for _, c := range cases {
		for _, e := range engines() {
			if _, err := Run(NewContext(db), e, c.plan); err == nil {
				t.Errorf("%s (%s): expected error", c.name, e.Name())
			}
		}
	}
	if _, err := Run(nil, RowEngine{}, Scan("orders").Node()); err == nil {
		t.Error("nil context should error")
	}
	if _, err := Run(NewContext(db), RowEngine{}, nil); err == nil {
		t.Error("nil plan should error")
	}
}

func TestDivisionByZero(t *testing.T) {
	db := testDB(t)
	plan := Scan("orders").
		Project([]string{"x"}, Div(Col("o_total"), Sub(Col("o_id"), Col("o_id")))).Node()
	for _, e := range engines() {
		if _, err := Run(NewContext(db), e, plan); err == nil {
			t.Errorf("%s: division by zero should error", e.Name())
		}
	}
	planInt := Scan("orders").
		Project([]string{"x"}, Div(Col("o_id"), Sub(Col("o_id"), Col("o_id")))).Node()
	for _, e := range engines() {
		if _, err := Run(NewContext(db), e, planInt); err == nil {
			t.Errorf("%s: integer division by zero should error", e.Name())
		}
	}
}

func TestIntArithmeticStaysInt(t *testing.T) {
	db := testDB(t)
	plan := Scan("orders").
		Project([]string{"x"}, Add(Mul(Col("o_id"), Int(10)), Int(1))).Node()
	res := runBoth(t, db, plan)
	c := res.Cols[0]
	if c.Type != TInt {
		t.Fatalf("int arithmetic type = %v", c.Type)
	}
	if c.Ints[0] != 11 || c.Ints[4] != 51 {
		t.Errorf("values = %v", c.Ints)
	}
}

// TestDescribe pins each operator's one-line rendering: profiles label
// their spans with it, and the f3 artifact prints those labels.
func TestDescribe(t *testing.T) {
	for _, c := range []struct {
		node Node
		want string
	}{
		{&ScanNode{Table: "orders"}, "Scan orders"},
		{&ScanNode{Table: "orders", Cols: []string{"o_id", "o_total"}}, "Scan orders [o_id, o_total]"},
		{&FilterNode{Pred: Gt(Col("o_total"), Float(100))}, "Filter (o_total > 100)"},
		{&ProjectNode{Exprs: []Expr{Col("o_id")}, Names: []string{"id"}}, "Project o_id AS id"},
		{&JoinNode{LeftKey: "o_cust", RightKey: "c_id"}, "HashJoin o_cust = c_id"},
		{&AggNode{GroupBy: []string{"o_status"}, Aggs: []AggSpec{Count("n")}}, "GroupBy [o_status] count(*) AS n"},
		{&AggNode{Aggs: []AggSpec{Sum(Col("o_total"), "s")}}, "Aggregate sum(o_total) AS s"},
		{&SortNode{Keys: []SortKey{{Col: "n", Desc: true}, {Col: "o_id"}}}, "Sort n DESC, o_id"},
		{&LimitNode{N: 1}, "Limit 1"},
	} {
		if got := c.node.Describe(); got != c.want {
			t.Errorf("%T.Describe() = %q, want %q", c.node, got, c.want)
		}
	}
}

func TestCSVRendering(t *testing.T) {
	tab, _ := NewTable("t",
		NewIntColumn("a", []int64{1, 2}),
		NewFloatColumn("b", []float64{13.666, 15}),
		NewStringColumn("c", []string{"x", "y"}),
	)
	csv := tab.CSV()
	want := "a,b,c\n1,13.666,x\n2,15,y\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestValueHelpers(t *testing.T) {
	if !IntVal(3).Equal(FloatVal(3)) {
		t.Error("3 == 3.0 should hold across types")
	}
	if IntVal(3).Equal(StrVal("3")) {
		t.Error("int and string never equal")
	}
	if !IntVal(2).Less(FloatVal(2.5)) {
		t.Error("2 < 2.5")
	}
	if !StrVal("a").Less(StrVal("b")) {
		t.Error("a < b")
	}
	if IntVal(5).String() != "5" || FloatVal(1.5).String() != "1.5" || StrVal("s").String() != "s" {
		t.Error("value rendering")
	}
	var c Column
	c.Type = TInt
	c.Name = "x"
	if err := c.Append(StrVal("no")); err == nil {
		t.Error("type mismatch append should error")
	}
	fc := Column{Name: "f", Type: TFloat}
	if err := fc.Append(IntVal(2)); err != nil {
		t.Errorf("int->float widening append: %v", err)
	}
	if fc.Floats[0] != 2 {
		t.Errorf("widened value = %v", fc.Floats)
	}
}
