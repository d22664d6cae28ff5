package vdb

import (
	"fmt"
	"sort"

	"repro/internal/hwsim"
)

// ColumnEngine executes plans column-at-a-time with full materialization,
// the MonetDB-style execution model: every operator consumes whole columns
// and produces whole columns. Per-tuple interpretation overhead is absent;
// the dominant simulated cost is data movement (reading and writing
// materialized intermediates), which reproduces the right half of the
// paper's profiling figure.
type ColumnEngine struct{}

// Name implements Engine.
func (ColumnEngine) Name() string { return "column-at-a-time" }

// Run implements Engine.
func (e ColumnEngine) Run(ctx *ExecContext, plan Node) (*Table, error) {
	if _, err := OutputSchema(ctx.DB, plan); err != nil {
		return nil, err
	}
	return e.exec(ctx, plan)
}

func (e ColumnEngine) exec(ctx *ExecContext, n Node) (res *Table, err error) {
	span := ctx.Profiler.Begin(n.Describe())
	defer func() {
		rows := 0
		if res != nil {
			rows = res.NumRows()
		}
		ctx.Profiler.End(span, rows)
	}()

	switch node := n.(type) {
	case *ScanNode:
		return e.execScan(ctx, node)
	case *FilterNode:
		return e.execFilter(ctx, node)
	case *ProjectNode:
		return e.execProject(ctx, node)
	case *JoinNode:
		return e.execJoin(ctx, node)
	case *AggNode:
		return e.execAgg(ctx, node)
	case *SortNode:
		return e.execSort(ctx, node)
	case *LimitNode:
		child, err := e.exec(ctx, node.Child)
		if err != nil {
			return nil, err
		}
		return limitTable(child, node.N)
	default:
		return nil, fmt.Errorf("vdb: column engine: unknown node %T", n)
	}
}

func (e ColumnEngine) execScan(ctx *ExecContext, node *ScanNode) (*Table, error) {
	t, err := ctx.DB.Table(node.Table)
	if err != nil {
		return nil, err
	}
	ctx.chargeTableLoad(t)
	cols := t.Cols
	if len(node.Cols) > 0 {
		cols = make([]*Column, 0, len(node.Cols))
		for _, name := range node.Cols {
			c, err := t.Column(name)
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
		}
	}
	n := t.NumRows()
	for _, c := range cols {
		ctx.chargeValueWork(n, hwsim.OpScan)
		ctx.chargeScanMemory(n, c.WidthBytes())
	}
	return &Table{Name: node.Table, Cols: cols}, nil
}

func (e ColumnEngine) execFilter(ctx *ExecContext, node *FilterNode) (*Table, error) {
	child, err := e.exec(ctx, node.Child)
	if err != nil {
		return nil, err
	}
	n := child.NumRows()
	ctx.chargeValueWork(n*exprNodes(node.Pred), hwsim.OpFilter)
	ctx.chargeScanMemory(n*exprNodes(node.Pred), 8)
	sel, err := selectRows(node.Pred, child)
	if err != nil {
		return nil, err
	}
	return gatherTable(ctx, child, sel, hwsim.OpFilter, "filter")
}

// selectRows evaluates a predicate column-at-a-time and returns the
// selection vector of matching row indices — the MonetDB "candidate list".
func selectRows(pred Expr, t *Table) ([]int, error) {
	c, err := EvalColumn(pred, t)
	if err != nil {
		return nil, err
	}
	var sel []int
	switch c.Type {
	case TInt:
		for i, v := range c.Ints {
			if v != 0 {
				sel = append(sel, i)
			}
		}
	case TFloat:
		for i, v := range c.Floats {
			if v != 0 {
				sel = append(sel, i)
			}
		}
	default:
		return nil, fmt.Errorf("vdb: string predicate result")
	}
	return sel, nil
}

// gatherTable materializes the selected rows of every column — the data
// movement the column-at-a-time model pays instead of per-tuple overhead.
func gatherTable(ctx *ExecContext, t *Table, sel []int, op hwsim.OpClass, name string) (*Table, error) {
	cols := make([]*Column, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = c.Gather(sel)
		// Read source + write destination.
		ctx.chargeValueWork(len(sel), op)
		ctx.chargeScanMemory(2*len(sel), c.WidthBytes())
	}
	return NewTable(name, cols...)
}

func (e ColumnEngine) execProject(ctx *ExecContext, node *ProjectNode) (*Table, error) {
	child, err := e.exec(ctx, node.Child)
	if err != nil {
		return nil, err
	}
	n := child.NumRows()
	cols := make([]*Column, len(node.Exprs))
	for i, expr := range node.Exprs {
		ctx.chargeValueWork(n*exprNodes(expr), hwsim.OpProject)
		ctx.chargeScanMemory(n*exprNodes(expr), 8)
		c, err := EvalColumn(expr, child)
		if err != nil {
			return nil, err
		}
		// Column references share storage; computed columns were
		// materialized by EvalColumn (write traffic charged above).
		out := *c
		out.Name = node.Names[i]
		cols[i] = &out
	}
	return NewTable("project", cols...)
}

func (e ColumnEngine) execJoin(ctx *ExecContext, node *JoinNode) (*Table, error) {
	left, err := e.exec(ctx, node.Left)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(ctx, node.Right)
	if err != nil {
		return nil, err
	}
	lk, err := left.Column(node.LeftKey)
	if err != nil {
		return nil, err
	}
	rk, err := right.Column(node.RightKey)
	if err != nil {
		return nil, err
	}

	// Build on the right (whole column), probe with the left.
	nRight := right.NumRows()
	ctx.chargeValueWork(nRight, hwsim.OpJoin)
	ctx.chargeRandomMemory(nRight, int(right.ByteSize()))
	build := make(map[string][]int, nRight)
	for i := 0; i < nRight; i++ {
		k := rk.Value(i).String()
		build[k] = append(build[k], i)
	}

	nLeft := left.NumRows()
	ctx.chargeValueWork(nLeft, hwsim.OpJoin)
	ctx.chargeRandomMemory(nLeft, int(right.ByteSize()))
	var selL, selR []int
	for i := 0; i < nLeft; i++ {
		for _, j := range build[lk.Value(i).String()] {
			selL = append(selL, i)
			selR = append(selR, j)
		}
	}

	leftOut, err := gatherTable(ctx, left, selL, hwsim.OpJoin, "join")
	if err != nil {
		return nil, err
	}
	rightOut, err := gatherTable(ctx, right, selR, hwsim.OpJoin, "join")
	if err != nil {
		return nil, err
	}
	return NewTable("join", append(leftOut.Cols, rightOut.Cols...)...)
}

func (e ColumnEngine) execAgg(ctx *ExecContext, node *AggNode) (*Table, error) {
	child, err := e.exec(ctx, node.Child)
	if err != nil {
		return nil, err
	}
	childSchema := SchemaOf(child)
	gs, err := newGroupSet(node, childSchema)
	if err != nil {
		return nil, err
	}

	// Evaluate every aggregate input column-at-a-time first...
	inputs := make([]*Column, len(node.Aggs))
	n := child.NumRows()
	for i, a := range node.Aggs {
		if a.Expr == nil {
			continue
		}
		ctx.chargeValueWork(n*exprNodes(a.Expr), hwsim.OpAggregate)
		ctx.chargeScanMemory(n*exprNodes(a.Expr), 8)
		inputs[i], err = EvalColumn(a.Expr, child)
		if err != nil {
			return nil, err
		}
	}
	groupCols := make([]*Column, len(node.GroupBy))
	for i, g := range node.GroupBy {
		groupCols[i], err = child.Column(g)
		if err != nil {
			return nil, err
		}
	}

	// ...then fold rows into groups. Grouped aggregation probes a hash
	// table per row; a global aggregate folds into registers and pays no
	// random memory.
	ctx.chargeValueWork(n*(len(node.Aggs)+len(node.GroupBy)), hwsim.OpAggregate)
	if len(node.GroupBy) > 0 {
		ctx.chargeRandomMemory(n, 1<<20)
	}
	keys := make([]Value, len(groupCols))
	for i := 0; i < n; i++ {
		for j, c := range groupCols {
			keys[j] = c.Value(i)
		}
		g := gs.getOrCreate(keys)
		for j := range node.Aggs {
			if inputs[j] == nil {
				g.accs[j].addCount()
			} else {
				g.accs[j].add(inputs[j].Value(i))
			}
		}
	}
	outSchema, err := OutputSchema(ctx.DB, node)
	if err != nil {
		return nil, err
	}
	return gs.emit(outSchema, "agg")
}

func (e ColumnEngine) execSort(ctx *ExecContext, node *SortNode) (*Table, error) {
	child, err := e.exec(ctx, node.Child)
	if err != nil {
		return nil, err
	}
	n := child.NumRows()
	keyCols := make([]*Column, len(node.Keys))
	for i, k := range node.Keys {
		keyCols[i], err = child.Column(k.Col)
		if err != nil {
			return nil, err
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// n log n comparisons of sort work.
	ctx.chargeValueWork(n*log2ceil(n)*len(node.Keys), hwsim.OpSort)
	sort.SliceStable(idx, func(a, b int) bool {
		return lessByKeys(keyCols, node.Keys, idx[a], idx[b])
	})
	return gatherTable(ctx, child, idx, hwsim.OpSort, "sort")
}

// lessByKeys orders rows a, b by the sort keys.
func lessByKeys(keyCols []*Column, keys []SortKey, a, b int) bool {
	for i, k := range keys {
		va, vb := keyCols[i].Value(a), keyCols[i].Value(b)
		if va.Equal(vb) {
			continue
		}
		if k.Desc {
			return vb.Less(va)
		}
		return va.Less(vb)
	}
	return false
}

func limitTable(t *Table, n int) (*Table, error) {
	if n >= t.NumRows() {
		return t, nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	cols := make([]*Column, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = c.Gather(idx)
	}
	return NewTable("limit", cols...)
}

func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
