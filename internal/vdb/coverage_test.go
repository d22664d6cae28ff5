package vdb

import "testing"

// These tests exercise corners the main suites don't reach: expression
// edge cases, operator plumbing, and helper accessors.

func TestExprLeAndAllComparisons(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		pred Expr
		want int
	}{
		{Le(Col("o_id"), Int(2)), 2},
		{Lt(Col("o_id"), Int(2)), 1},
		{Ge(Col("o_id"), Int(4)), 2},
		{Gt(Col("o_id"), Int(4)), 1},
		{Eq(Col("o_id"), Int(3)), 1},
		{Ne(Col("o_id"), Int(3)), 4},
		// String comparisons beyond equality.
		{Lt(Col("o_status"), Str("open")), 2}, // "done" < "open"
		{Ge(Col("o_status"), Str("open")), 3},
		{Le(Col("o_status"), Str("done")), 2},
		{Gt(Col("o_status"), Str("done")), 3},
	}
	for _, c := range cases {
		res := runBoth(t, db, Scan("orders").Filter(c.pred).Node())
		if res.NumRows() != c.want {
			t.Errorf("%s: rows = %d, want %d", c.pred, res.NumRows(), c.want)
		}
	}
}

func TestExprArithmeticVariants(t *testing.T) {
	db := testDB(t)
	// Integer subtraction and division; float subtraction and division.
	plan := Scan("orders").Project([]string{"isub", "idiv", "fsub", "fdiv"},
		Sub(Col("o_id"), Int(1)),
		Div(Col("o_id"), Int(2)),
		Sub(Col("o_total"), Float(50)),
		Div(Col("o_total"), Float(2)),
	).Node()
	res := runBoth(t, db, plan)
	isub, _ := res.Column("isub")
	idiv, _ := res.Column("idiv")
	fsub, _ := res.Column("fsub")
	fdiv, _ := res.Column("fdiv")
	if isub.Ints[0] != 0 || idiv.Ints[4] != 2 {
		t.Errorf("int arith: %v %v", isub.Ints, idiv.Ints)
	}
	if fsub.Floats[0] != 50 || fdiv.Floats[0] != 50 {
		t.Errorf("float arith: %v %v", fsub.Floats, fdiv.Floats)
	}
	// Mixed int/float widen to float.
	mixed := Scan("orders").Project([]string{"m"}, Add(Col("o_id"), Float(0.5))).Node()
	resM := runBoth(t, db, mixed)
	if resM.Cols[0].Type != TFloat || resM.Cols[0].Floats[0] != 1.5 {
		t.Errorf("mixed arith = %v", resM.Cols[0])
	}
}

func TestExprTypeErrors(t *testing.T) {
	db := testDB(t)
	bad := []Node{
		// Arithmetic right operand unknown column.
		Scan("orders").Project([]string{"x"}, Add(Col("o_id"), Col("bogus"))).Node(),
		// Comparison right operand unknown column.
		Scan("orders").Filter(Lt(Col("o_id"), Col("bogus"))).Node(),
		// Boolean with bad right side.
		Scan("orders").Filter(And(Gt(Col("o_id"), Int(0)), Gt(Col("bogus"), Int(0)))).Node(),
		// NOT over bad operand.
		Scan("orders").Filter(Not(Gt(Col("bogus"), Int(0)))).Node(),
		// LIKE over bad operand.
		Scan("orders").Filter(HasPrefix(Col("bogus"), "x")).Node(),
	}
	for i, plan := range bad {
		for _, e := range engines() {
			if _, err := Run(NewContext(db), e, plan); err == nil {
				t.Errorf("case %d (%s): expected error", i, e.Name())
			}
		}
	}
}

func TestTableHelpers(t *testing.T) {
	empty := &Table{Name: "empty"}
	if empty.NumRows() != 0 {
		t.Error("empty table rows")
	}
	if Type(9).String() == "" || TInt.String() != "int" || TFloat.String() != "float" || TString.String() != "string" {
		t.Error("type strings")
	}
}

func TestAggResultErrors(t *testing.T) {
	// Min/Max/Avg over empty input error through the accumulator.
	for _, fn := range []AggFunc{AggMin, AggMax, AggAvg} {
		a := newAccumulator(fn, TInt)
		if _, err := a.result(); err == nil {
			t.Errorf("%v over empty input should error", fn)
		}
	}
	bad := &accumulator{fn: AggFunc(99)}
	if _, err := bad.result(); err == nil {
		t.Error("unknown aggregate should error")
	}
	// Sum over float input via float accumulator.
	s := newAccumulator(AggSum, TFloat)
	s.add(FloatVal(1.5))
	s.add(IntVal(2))
	v, err := s.result()
	if err != nil || v.F != 3.5 {
		t.Errorf("float sum = %v, %v", v, err)
	}
}

func TestSelectRowsFloatPredicate(t *testing.T) {
	// A float-typed predicate result (arithmetic used as truthy value)
	// exercises selectRows' float branch in the column engine.
	db := testDB(t)
	plan := Scan("orders").Filter(Sub(Col("o_total"), Float(100))).Node()
	res, err := Run(NewContext(db), ColumnEngine{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Rows where o_total != 100: four of five.
	if res.NumRows() != 4 {
		t.Errorf("rows = %d, want 4", res.NumRows())
	}
}

func TestProfileOpClass(t *testing.T) {
	if opClass("Filter (a > 1)") != "Filter" {
		t.Errorf("opClass = %q", opClass("Filter (a > 1)"))
	}
	if opClass("Scan") != "Scan" {
		t.Errorf("opClass = %q", opClass("Scan"))
	}
}

func TestRowEngineCloseIsSafe(t *testing.T) {
	// Exercise iterator Close paths by running a plan with every
	// operator type through the row engine.
	db := testDB(t)
	plan := Scan("orders").
		Filter(Gt(Col("o_total"), Float(0))).
		Join(From(Scan("cust").Node()), "o_cust", "c_id").
		Project([]string{"n", "v"}, Col("c_name"), Col("o_total")).
		GroupBy([]string{"n"}, Sum(Col("v"), "s")).
		OrderBy(SortKey{Col: "s", Desc: true}).
		Limit(2).Node()
	res, err := Run(NewContext(db), RowEngine{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Errorf("rows = %d", res.NumRows())
	}
}
