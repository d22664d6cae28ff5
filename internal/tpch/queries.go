package tpch

import (
	"fmt"

	"repro/internal/vdb"
)

// Query is a named TPC-H-like query: a plan over the Gen catalog.
type Query struct {
	Num  int
	Name string
	Plan vdb.Node
}

// revenue is the TPC-H revenue expression l_extendedprice * (1 - l_discount).
func revenue() vdb.Expr {
	return vdb.Mul(vdb.Col("l_extendedprice"), vdb.Sub(vdb.Float(1), vdb.Col("l_discount")))
}

// Queries returns analogs of all 22 TPC-H queries, in order. Each keeps the
// original's plan shape (scan-heavy aggregation, selective multi-way joins,
// grouped tops) within vdb's operator set: single-column equi-joins, no
// correlated subqueries. Where the original needs one, the analog joins the
// subquery's table and aggregates instead: Q4's EXISTS becomes a join and
// a count(distinct) of the outer key, Q2's per-part minimum a grouped min,
// and Q17's per-part average a constant quantity bound. The experiments
// need the plan shapes, not TPC-H's answers, so the result sets differ.
func Queries() []Query {
	lineitem := func() *vdb.Plan { return vdb.Scan("lineitem") }

	qs := []Query{
		{1, "pricing summary report", q1()},

		{2, "minimum cost supplier", vdb.Scan("part").
			Filter(vdb.And(vdb.Le(vdb.Col("p_size"), vdb.Int(15)), vdb.HasSuffix(vdb.Col("p_type"), "BRASS"))).
			Join(vdb.Scan("partsupp"), "p_partkey", "ps_partkey").
			Join(vdb.Scan("supplier"), "ps_suppkey", "s_suppkey").
			Join(vdb.Scan("nation"), "s_nationkey", "n_nationkey").
			GroupBy([]string{"n_name"}, vdb.MinOf(vdb.Col("ps_supplycost"), "min_cost")).
			OrderBy(vdb.SortKey{Col: "n_name"}).Node()},

		{3, "shipping priority", vdb.Scan("customer").
			Filter(vdb.Eq(vdb.Col("c_mktsegment"), vdb.Str("BUILDING"))).
			Join(vdb.Scan("orders"), "c_custkey", "o_custkey").
			Filter(vdb.Lt(vdb.Col("o_orderdate"), vdb.Int(Date(1995, 3, 15)))).
			Join(lineitem(), "o_orderkey", "l_orderkey").
			Filter(vdb.Gt(vdb.Col("l_shipdate"), vdb.Int(Date(1995, 3, 15)))).
			GroupBy([]string{"o_orderkey"}, vdb.Sum(revenue(), "revenue")).
			OrderBy(vdb.SortKey{Col: "revenue", Desc: true}, vdb.SortKey{Col: "o_orderkey"}).
			Limit(10).Node()},

		{4, "order priority checking", vdb.Scan("orders").
			Filter(vdb.And(
				vdb.Ge(vdb.Col("o_orderdate"), vdb.Int(Date(1993, 7, 1))),
				vdb.Lt(vdb.Col("o_orderdate"), vdb.Int(Date(1993, 10, 1))))).
			Join(lineitem(), "o_orderkey", "l_orderkey").
			Filter(vdb.Lt(vdb.Col("l_commitdate"), vdb.Col("l_receiptdate"))).
			GroupBy([]string{"o_orderpriority"}, vdb.CountDistinct(vdb.Col("o_orderkey"), "order_count")).
			OrderBy(vdb.SortKey{Col: "o_orderpriority"}).Node()},

		{5, "local supplier volume", vdb.Scan("orders").
			Filter(vdb.And(
				vdb.Ge(vdb.Col("o_orderdate"), vdb.Int(Date(1994, 1, 1))),
				vdb.Lt(vdb.Col("o_orderdate"), vdb.Int(Date(1995, 1, 1))))).
			Join(lineitem(), "o_orderkey", "l_orderkey").
			Join(vdb.Scan("supplier"), "l_suppkey", "s_suppkey").
			Join(vdb.Scan("nation"), "s_nationkey", "n_nationkey").
			Join(vdb.Scan("region"), "n_regionkey", "r_regionkey").
			Filter(vdb.Eq(vdb.Col("r_name"), vdb.Str("ASIA"))).
			GroupBy([]string{"n_name"}, vdb.Sum(revenue(), "revenue")).
			OrderBy(vdb.SortKey{Col: "revenue", Desc: true}).Node()},

		{6, "revenue forecast", q6()},

		{7, "volume shipping", lineitem().
			Join(vdb.Scan("supplier"), "l_suppkey", "s_suppkey").
			Join(vdb.Scan("nation"), "s_nationkey", "n_nationkey").
			Filter(vdb.And(
				vdb.Or(vdb.Eq(vdb.Col("n_name"), vdb.Str("FRANCE")), vdb.Eq(vdb.Col("n_name"), vdb.Str("GERMANY"))),
				vdb.And(
					vdb.Ge(vdb.Col("l_shipdate"), vdb.Int(Date(1995, 1, 1))),
					vdb.Le(vdb.Col("l_shipdate"), vdb.Int(Date(1996, 12, 31)))))).
			Project([]string{"supp_nation", "l_year", "volume"},
				vdb.Col("n_name"),
				vdb.Add(vdb.Int(1992), vdb.Div(vdb.Col("l_shipdate"), vdb.Int(365))),
				revenue()).
			GroupBy([]string{"supp_nation", "l_year"}, vdb.Sum(vdb.Col("volume"), "revenue")).
			OrderBy(vdb.SortKey{Col: "supp_nation"}, vdb.SortKey{Col: "l_year"}).Node()},

		{8, "national market share", lineitem().
			Join(vdb.Scan("part"), "l_partkey", "p_partkey").
			Filter(vdb.Eq(vdb.Col("p_type"), vdb.Str("ECONOMY ANODIZED STEEL"))).
			Join(vdb.Scan("orders"), "l_orderkey", "o_orderkey").
			Filter(vdb.And(
				vdb.Ge(vdb.Col("o_orderdate"), vdb.Int(Date(1995, 1, 1))),
				vdb.Le(vdb.Col("o_orderdate"), vdb.Int(Date(1996, 12, 31))))).
			Project([]string{"o_year", "volume"},
				vdb.Add(vdb.Int(1992), vdb.Div(vdb.Col("o_orderdate"), vdb.Int(365))),
				revenue()).
			GroupBy([]string{"o_year"}, vdb.Sum(vdb.Col("volume"), "mkt_share")).
			OrderBy(vdb.SortKey{Col: "o_year"}).Node()},

		{9, "product type profit", lineitem().
			Join(vdb.Scan("part"), "l_partkey", "p_partkey").
			Filter(vdb.Contains(vdb.Col("p_name"), "green")).
			Join(vdb.Scan("supplier"), "l_suppkey", "s_suppkey").
			Join(vdb.Scan("nation"), "s_nationkey", "n_nationkey").
			Project([]string{"nation", "o_year", "amount"},
				vdb.Col("n_name"),
				vdb.Add(vdb.Int(1992), vdb.Div(vdb.Col("l_shipdate"), vdb.Int(365))),
				revenue()).
			GroupBy([]string{"nation", "o_year"}, vdb.Sum(vdb.Col("amount"), "sum_profit")).
			OrderBy(vdb.SortKey{Col: "nation"}, vdb.SortKey{Col: "o_year", Desc: true}).Node()},

		{10, "returned item reporting", vdb.Scan("customer").
			Join(vdb.Scan("orders"), "c_custkey", "o_custkey").
			Filter(vdb.And(
				vdb.Ge(vdb.Col("o_orderdate"), vdb.Int(Date(1993, 10, 1))),
				vdb.Lt(vdb.Col("o_orderdate"), vdb.Int(Date(1994, 1, 1))))).
			Join(lineitem(), "o_orderkey", "l_orderkey").
			Filter(vdb.Eq(vdb.Col("l_returnflag"), vdb.Str("R"))).
			GroupBy([]string{"c_name"}, vdb.Sum(revenue(), "revenue")).
			OrderBy(vdb.SortKey{Col: "revenue", Desc: true}, vdb.SortKey{Col: "c_name"}).
			Limit(20).Node()},

		{11, "important stock identification", vdb.Scan("partsupp").
			Join(vdb.Scan("supplier"), "ps_suppkey", "s_suppkey").
			Join(vdb.Scan("nation"), "s_nationkey", "n_nationkey").
			Filter(vdb.Eq(vdb.Col("n_name"), vdb.Str("GERMANY"))).
			Project([]string{"ps_partkey", "value"},
				vdb.Col("ps_partkey"),
				vdb.Mul(vdb.Col("ps_supplycost"), vdb.Col("ps_availqty"))).
			GroupBy([]string{"ps_partkey"}, vdb.Sum(vdb.Col("value"), "value_sum")).
			OrderBy(vdb.SortKey{Col: "value_sum", Desc: true}, vdb.SortKey{Col: "ps_partkey"}).
			Limit(20).Node()},

		{12, "shipping modes and order priority", vdb.Scan("orders").
			Join(lineitem(), "o_orderkey", "l_orderkey").
			Filter(vdb.And(
				vdb.Or(vdb.Eq(vdb.Col("l_shipmode"), vdb.Str("MAIL")), vdb.Eq(vdb.Col("l_shipmode"), vdb.Str("SHIP"))),
				vdb.And(
					vdb.Ge(vdb.Col("l_receiptdate"), vdb.Int(Date(1994, 1, 1))),
					vdb.Lt(vdb.Col("l_receiptdate"), vdb.Int(Date(1995, 1, 1)))))).
			Project([]string{"l_shipmode", "is_high", "is_low"},
				vdb.Col("l_shipmode"),
				vdb.Or(vdb.Eq(vdb.Col("o_orderpriority"), vdb.Str("1-URGENT")), vdb.Eq(vdb.Col("o_orderpriority"), vdb.Str("2-HIGH"))),
				vdb.And(vdb.Ne(vdb.Col("o_orderpriority"), vdb.Str("1-URGENT")), vdb.Ne(vdb.Col("o_orderpriority"), vdb.Str("2-HIGH")))).
			GroupBy([]string{"l_shipmode"},
				vdb.Sum(vdb.Col("is_high"), "high_line_count"),
				vdb.Sum(vdb.Col("is_low"), "low_line_count")).
			OrderBy(vdb.SortKey{Col: "l_shipmode"}).Node()},

		{13, "customer distribution", vdb.From(vdb.Scan("customer").
			Join(vdb.Scan("orders"), "c_custkey", "o_custkey").
			GroupBy([]string{"c_custkey"}, vdb.Count("c_count")).Node()).
			GroupBy([]string{"c_count"}, vdb.Count("custdist")).
			OrderBy(vdb.SortKey{Col: "custdist", Desc: true}, vdb.SortKey{Col: "c_count", Desc: true}).Node()},

		{14, "promotion effect", lineitem().
			Filter(vdb.And(
				vdb.Ge(vdb.Col("l_shipdate"), vdb.Int(Date(1995, 9, 1))),
				vdb.Lt(vdb.Col("l_shipdate"), vdb.Int(Date(1995, 10, 1))))).
			Join(vdb.Scan("part"), "l_partkey", "p_partkey").
			Project([]string{"promo_rev", "total_rev"},
				vdb.Mul(boolToFloat(vdb.HasPrefix(vdb.Col("p_type"), "PROMO")), revenue()),
				revenue()).
			Aggregate(
				vdb.Sum(vdb.Col("promo_rev"), "promo"),
				vdb.Sum(vdb.Col("total_rev"), "total")).Node()},

		{15, "top supplier", vdb.From(lineitem().
			Filter(vdb.And(
				vdb.Ge(vdb.Col("l_shipdate"), vdb.Int(Date(1996, 1, 1))),
				vdb.Lt(vdb.Col("l_shipdate"), vdb.Int(Date(1996, 4, 1))))).
			GroupBy([]string{"l_suppkey"}, vdb.Sum(revenue(), "total_revenue")).Node()).
			Join(vdb.Scan("supplier"), "l_suppkey", "s_suppkey").
			OrderBy(vdb.SortKey{Col: "total_revenue", Desc: true}, vdb.SortKey{Col: "s_name"}).
			Limit(1).
			Project([]string{"s_name", "total_revenue"}, vdb.Col("s_name"), vdb.Col("total_revenue")).Node()},

		{16, "parts/supplier relationship", q16()},

		{17, "small-quantity-order revenue", lineitem().
			Filter(vdb.Lt(vdb.Col("l_quantity"), vdb.Int(3))).
			Join(vdb.Scan("part"), "l_partkey", "p_partkey").
			Filter(vdb.And(
				vdb.Eq(vdb.Col("p_brand"), vdb.Str("Brand#23")),
				vdb.Eq(vdb.Col("p_container"), vdb.Str("MED BOX")))).
			Project([]string{"price7"}, vdb.Div(vdb.Col("l_extendedprice"), vdb.Float(7))).
			Aggregate(vdb.Sum(vdb.Col("price7"), "avg_yearly")).Node()},

		{18, "large volume customer", vdb.From(lineitem().
			GroupBy([]string{"l_orderkey"}, vdb.Sum(vdb.Col("l_quantity"), "sum_qty")).Node()).
			Filter(vdb.Gt(vdb.Col("sum_qty"), vdb.Int(180))).
			Join(vdb.Scan("orders"), "l_orderkey", "o_orderkey").
			Join(vdb.Scan("customer"), "o_custkey", "c_custkey").
			Project([]string{"c_name", "o_orderkey", "o_totalprice", "sum_qty"},
				vdb.Col("c_name"), vdb.Col("o_orderkey"), vdb.Col("o_totalprice"), vdb.Col("sum_qty")).
			OrderBy(vdb.SortKey{Col: "o_totalprice", Desc: true}, vdb.SortKey{Col: "o_orderkey"}).
			Limit(10).Node()},

		{19, "discounted revenue", lineitem().
			Join(vdb.Scan("part"), "l_partkey", "p_partkey").
			Filter(vdb.Or(
				vdb.And(vdb.Eq(vdb.Col("p_brand"), vdb.Str("Brand#12")),
					vdb.And(vdb.Ge(vdb.Col("l_quantity"), vdb.Int(1)), vdb.Le(vdb.Col("l_quantity"), vdb.Int(11)))),
				vdb.Or(
					vdb.And(vdb.Eq(vdb.Col("p_brand"), vdb.Str("Brand#23")),
						vdb.And(vdb.Ge(vdb.Col("l_quantity"), vdb.Int(10)), vdb.Le(vdb.Col("l_quantity"), vdb.Int(20)))),
					vdb.And(vdb.Eq(vdb.Col("p_brand"), vdb.Str("Brand#34")),
						vdb.And(vdb.Ge(vdb.Col("l_quantity"), vdb.Int(20)), vdb.Le(vdb.Col("l_quantity"), vdb.Int(30))))))).
			Aggregate(vdb.Sum(revenue(), "revenue")).Node()},

		{20, "potential part promotion", vdb.Scan("part").
			Filter(vdb.HasPrefix(vdb.Col("p_name"), "forest")).
			Join(vdb.Scan("partsupp"), "p_partkey", "ps_partkey").
			Join(vdb.Scan("supplier"), "ps_suppkey", "s_suppkey").
			GroupBy([]string{"s_name"}, vdb.Count("n_parts")).
			OrderBy(vdb.SortKey{Col: "s_name"}).Node()},

		{21, "suppliers who kept orders waiting", lineitem().
			Filter(vdb.Gt(vdb.Col("l_receiptdate"), vdb.Col("l_commitdate"))).
			Join(vdb.Scan("orders"), "l_orderkey", "o_orderkey").
			Filter(vdb.Eq(vdb.Col("o_orderstatus"), vdb.Str("F"))).
			Join(vdb.Scan("supplier"), "l_suppkey", "s_suppkey").
			Join(vdb.Scan("nation"), "s_nationkey", "n_nationkey").
			// The original filters one nation; with the scaled-down
			// supplier population a single nation is often empty, so
			// the analog filters a region-sized nation group instead.
			Filter(vdb.Le(vdb.Col("n_regionkey"), vdb.Int(2))).
			GroupBy([]string{"s_name"}, vdb.Count("numwait")).
			OrderBy(vdb.SortKey{Col: "numwait", Desc: true}, vdb.SortKey{Col: "s_name"}).
			Limit(10).Node()},

		{22, "global sales opportunity", vdb.Scan("customer").
			Filter(vdb.Gt(vdb.Col("c_acctbal"), vdb.Float(7500))).
			Join(vdb.Scan("nation"), "c_nationkey", "n_nationkey").
			GroupBy([]string{"n_name"},
				vdb.Count("numcust"),
				vdb.Sum(vdb.Col("c_acctbal"), "totacctbal")).
			OrderBy(vdb.SortKey{Col: "n_name"}).Node()},
	}
	for i := range qs {
		if qs[i].Num != i+1 {
			panic(fmt.Sprintf("tpch: query list out of order at %d", i))
		}
	}
	return qs
}

// Q returns query number n (1-based).
func Q(n int) (Query, error) {
	qs := Queries()
	if n < 1 || n > len(qs) {
		return Query{}, fmt.Errorf("tpch: query %d out of range [1,%d]", n, len(qs))
	}
	return qs[n-1], nil
}

// q1 is the pricing summary report, the paper's workhorse query: scan
// lineitem below a shipdate cutoff, group by returnflag+linestatus, compute
// sums, averages and a count.
func q1() vdb.Node {
	return vdb.Scan("lineitem").
		Filter(vdb.Le(vdb.Col("l_shipdate"), vdb.Int(Date(1998, 9, 2)-90))).
		Project([]string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "disc_price", "charge", "l_discount"},
			vdb.Col("l_returnflag"), vdb.Col("l_linestatus"), vdb.Col("l_quantity"),
			vdb.Col("l_extendedprice"),
			revenue(),
			vdb.Mul(revenue(), vdb.Add(vdb.Float(1), vdb.Col("l_tax"))),
			vdb.Col("l_discount")).
		GroupBy([]string{"l_returnflag", "l_linestatus"},
			vdb.Sum(vdb.Col("l_quantity"), "sum_qty"),
			vdb.Sum(vdb.Col("l_extendedprice"), "sum_base_price"),
			vdb.Sum(vdb.Col("disc_price"), "sum_disc_price"),
			vdb.Sum(vdb.Col("charge"), "sum_charge"),
			vdb.Avg(vdb.Col("l_quantity"), "avg_qty"),
			vdb.Avg(vdb.Col("l_extendedprice"), "avg_price"),
			vdb.Avg(vdb.Col("l_discount"), "avg_disc"),
			vdb.Count("count_order")).
		OrderBy(vdb.SortKey{Col: "l_returnflag"}, vdb.SortKey{Col: "l_linestatus"}).Node()
}

// q6 is the forecast revenue change query: a pure scan-filter-aggregate.
func q6() vdb.Node {
	return vdb.Scan("lineitem").
		Filter(vdb.And(
			vdb.And(
				vdb.Ge(vdb.Col("l_shipdate"), vdb.Int(Date(1994, 1, 1))),
				vdb.Lt(vdb.Col("l_shipdate"), vdb.Int(Date(1995, 1, 1)))),
			vdb.And(
				vdb.And(vdb.Ge(vdb.Col("l_discount"), vdb.Float(0.05)), vdb.Le(vdb.Col("l_discount"), vdb.Float(0.07))),
				vdb.Lt(vdb.Col("l_quantity"), vdb.Int(24))))).
		Project([]string{"rev"}, vdb.Mul(vdb.Col("l_extendedprice"), vdb.Col("l_discount"))).
		Aggregate(vdb.Sum(vdb.Col("rev"), "revenue")).Node()
}

// q16 counts distinct suppliers per (brand, type, size) for qualifying
// parts — the paper's "Q16" with its characteristically large (1.2MB at
// sf=1) result output.
func q16() vdb.Node {
	return vdb.Scan("part").
		Filter(vdb.And(
			vdb.Ne(vdb.Col("p_brand"), vdb.Str("Brand#45")),
			vdb.And(
				vdb.Not(vdb.HasPrefix(vdb.Col("p_type"), "MEDIUM POLISHED")),
				vdb.Lt(vdb.Col("p_size"), vdb.Int(20))))).
		Join(vdb.Scan("partsupp"), "p_partkey", "ps_partkey").
		GroupBy([]string{"p_brand", "p_type", "p_size"},
			vdb.CountDistinct(vdb.Col("ps_suppkey"), "supplier_cnt")).
		OrderBy(vdb.SortKey{Col: "supplier_cnt", Desc: true},
			vdb.SortKey{Col: "p_brand"}, vdb.SortKey{Col: "p_type"}, vdb.SortKey{Col: "p_size"}).Node()
}

// boolToFloat widens a 0/1 predicate to float for arithmetic.
func boolToFloat(pred vdb.Expr) vdb.Expr {
	return vdb.Mul(pred, vdb.Float(1))
}
