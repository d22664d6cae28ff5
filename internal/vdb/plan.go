package vdb

import (
	"fmt"
	"strings"
)

// Node is a logical query plan node. Both engines interpret the same plan.
type Node interface {
	// Describe renders the node on one line; profiles and operator
	// statistics are labelled with it.
	Describe() string
}

// ScanNode reads a base table, optionally restricted to some columns.
type ScanNode struct {
	Table string
	Cols  []string // nil means all columns
}

// Describe implements Node.
func (n *ScanNode) Describe() string {
	if len(n.Cols) == 0 {
		return fmt.Sprintf("Scan %s", n.Table)
	}
	return fmt.Sprintf("Scan %s [%s]", n.Table, strings.Join(n.Cols, ", "))
}

// FilterNode keeps rows where Pred is true.
type FilterNode struct {
	Child Node
	Pred  Expr
}

// Describe implements Node.
func (n *FilterNode) Describe() string { return fmt.Sprintf("Filter %s", n.Pred) }

// ProjectNode computes named expressions.
type ProjectNode struct {
	Child Node
	Exprs []Expr
	Names []string
}

// Describe implements Node.
func (n *ProjectNode) Describe() string {
	parts := make([]string, len(n.Exprs))
	for i, e := range n.Exprs {
		parts[i] = fmt.Sprintf("%s AS %s", e, n.Names[i])
	}
	return "Project " + strings.Join(parts, ", ")
}

// JoinNode is a single-column equi-join (hash join: build on the right,
// probe from the left). Output columns are the left's followed by the
// right's; all names must be distinct across the two sides.
type JoinNode struct {
	Left, Right       Node
	LeftKey, RightKey string
}

// Describe implements Node.
func (n *JoinNode) Describe() string {
	return fmt.Sprintf("HashJoin %s = %s", n.LeftKey, n.RightKey)
}

// AggFunc is an aggregate function.
type AggFunc int

// Aggregate functions.
const (
	AggSum AggFunc = iota
	AggAvg
	AggCount
	AggMin
	AggMax
	AggCountDistinct
)

func (f AggFunc) String() string {
	return [...]string{"sum", "avg", "count", "min", "max", "count_distinct"}[f]
}

// AggSpec is one aggregate output: Func over Expr, named Name. For
// AggCount, Expr may be nil (COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Expr Expr
	Name string
}

func (a AggSpec) String() string {
	arg := "*"
	if a.Expr != nil {
		arg = a.Expr.String()
	}
	return fmt.Sprintf("%s(%s) AS %s", a.Func, arg, a.Name)
}

// AggNode groups by columns and computes aggregates. With no group-by
// columns it produces a single row.
type AggNode struct {
	Child   Node
	GroupBy []string
	Aggs    []AggSpec
}

// Describe implements Node.
func (n *AggNode) Describe() string {
	parts := make([]string, len(n.Aggs))
	for i, a := range n.Aggs {
		parts[i] = a.String()
	}
	if len(n.GroupBy) == 0 {
		return "Aggregate " + strings.Join(parts, ", ")
	}
	return fmt.Sprintf("GroupBy [%s] %s", strings.Join(n.GroupBy, ", "), strings.Join(parts, ", "))
}

// SortKey orders by a column, optionally descending.
type SortKey struct {
	Col  string
	Desc bool
}

func (k SortKey) String() string {
	if k.Desc {
		return k.Col + " DESC"
	}
	return k.Col
}

// SortNode orders rows by keys.
type SortNode struct {
	Child Node
	Keys  []SortKey
}

// Describe implements Node.
func (n *SortNode) Describe() string {
	parts := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		parts[i] = k.String()
	}
	return "Sort " + strings.Join(parts, ", ")
}

// LimitNode keeps the first N rows.
type LimitNode struct {
	Child Node
	N     int
}

// Describe implements Node.
func (n *LimitNode) Describe() string { return fmt.Sprintf("Limit %d", n.N) }

// Plan is a fluent builder over Node, so queries read top-down like SQL:
//
//	vdb.Scan("lineitem").
//	    Filter(vdb.Le(vdb.Col("l_shipdate"), vdb.Int(d))).
//	    GroupBy([]string{"l_returnflag"}, vdb.Sum(...)).Node()
type Plan struct{ node Node }

// Scan starts a plan from a base table.
func Scan(table string, cols ...string) *Plan {
	return &Plan{node: &ScanNode{Table: table, Cols: cols}}
}

// From wraps an existing node.
func From(n Node) *Plan { return &Plan{node: n} }

// Node unwraps the built plan.
func (p *Plan) Node() Node { return p.node }

// Filter appends a filter.
func (p *Plan) Filter(pred Expr) *Plan {
	return &Plan{node: &FilterNode{Child: p.node, Pred: pred}}
}

// Project appends a projection; names and exprs must pair up.
func (p *Plan) Project(names []string, exprs ...Expr) *Plan {
	return &Plan{node: &ProjectNode{Child: p.node, Exprs: exprs, Names: names}}
}

// Join appends a hash equi-join with another plan as build side.
func (p *Plan) Join(right *Plan, leftKey, rightKey string) *Plan {
	return &Plan{node: &JoinNode{Left: p.node, Right: right.node, LeftKey: leftKey, RightKey: rightKey}}
}

// GroupBy appends a grouped aggregation.
func (p *Plan) GroupBy(cols []string, aggs ...AggSpec) *Plan {
	return &Plan{node: &AggNode{Child: p.node, GroupBy: cols, Aggs: aggs}}
}

// Aggregate appends an ungrouped aggregation (one output row).
func (p *Plan) Aggregate(aggs ...AggSpec) *Plan {
	return &Plan{node: &AggNode{Child: p.node, Aggs: aggs}}
}

// OrderBy appends a sort.
func (p *Plan) OrderBy(keys ...SortKey) *Plan {
	return &Plan{node: &SortNode{Child: p.node, Keys: keys}}
}

// Limit appends a row limit.
func (p *Plan) Limit(n int) *Plan {
	return &Plan{node: &LimitNode{Child: p.node, N: n}}
}

// Sum builds sum(expr) AS name.
func Sum(e Expr, name string) AggSpec { return AggSpec{Func: AggSum, Expr: e, Name: name} }

// Avg builds avg(expr) AS name.
func Avg(e Expr, name string) AggSpec { return AggSpec{Func: AggAvg, Expr: e, Name: name} }

// Count builds count(*) AS name.
func Count(name string) AggSpec { return AggSpec{Func: AggCount, Name: name} }

// MinOf builds min(expr) AS name.
func MinOf(e Expr, name string) AggSpec { return AggSpec{Func: AggMin, Expr: e, Name: name} }

// MaxOf builds max(expr) AS name.
func MaxOf(e Expr, name string) AggSpec { return AggSpec{Func: AggMax, Expr: e, Name: name} }

// CountDistinct builds count(distinct expr) AS name.
func CountDistinct(e Expr, name string) AggSpec {
	return AggSpec{Func: AggCountDistinct, Expr: e, Name: name}
}
