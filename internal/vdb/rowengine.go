package vdb

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/hwsim"
)

// RowEngine executes plans with Volcano-style tuple-at-a-time iterators,
// the classical interpreter model (the paper's MySQL profile shape): every
// operator pays per-tuple interpretation overhead on every tuple, which the
// simulated cost model charges as CyclesPerTupleOverhead per operator per
// row. That overhead — absent from the column engine — dominates its
// profiles, reproducing the left half of the paper's profiling figure.
type RowEngine struct{}

// Name implements Engine.
func (RowEngine) Name() string { return "tuple-at-a-time" }

// Run implements Engine.
func (RowEngine) Run(ctx *ExecContext, plan Node) (*Table, error) {
	schema, err := OutputSchema(ctx.DB, plan)
	if err != nil {
		return nil, err
	}
	start := ctxNow(ctx)
	it, err := buildIter(ctx, plan)
	if err != nil {
		return nil, err
	}
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()

	cols := make([]*Column, len(schema.Names))
	for i := range cols {
		cols[i] = &Column{Name: schema.Names[i], Type: schema.Types[i]}
	}
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		for i, v := range row {
			if err := cols[i].Append(v); err != nil {
				return nil, err
			}
		}
	}
	recordIterProfile(ctx, it, 0, ctxNow(ctx)-start)
	return NewTable("result", cols...)
}

func ctxNow(ctx *ExecContext) time.Duration {
	if ctx.Clock != nil {
		return ctx.Clock.Now()
	}
	return 0
}

// opStats accumulates a tuple-at-a-time operator's own simulated cost.
type opStats struct {
	op   string
	rows int
	self time.Duration
}

// rowIter is the Volcano iterator interface.
type rowIter interface {
	Open() error
	Next() ([]Value, bool, error)
	Close()
	stats() *opStats
	children() []rowIter
}

// recordIterProfile walks the iterator tree in plan order, recording each
// operator's stats; the root carries the whole execution's total time.
func recordIterProfile(ctx *ExecContext, it rowIter, depth int, rootTotal time.Duration) {
	st := it.stats()
	total := st.self
	if depth == 0 {
		total = rootTotal
	}
	ctx.Profiler.Record(st.op, depth, st.rows, st.self, total)
	for _, c := range it.children() {
		recordIterProfile(ctx, c, depth+1, 0)
	}
}

// charge runs fn and attributes the simulated time it advances to st.self.
func charge(ctx *ExecContext, st *opStats, fn func()) {
	t0 := ctxNow(ctx)
	fn()
	st.self += ctxNow(ctx) - t0
}

func buildIter(ctx *ExecContext, n Node) (rowIter, error) {
	switch node := n.(type) {
	case *ScanNode:
		t, err := ctx.DB.Table(node.Table)
		if err != nil {
			return nil, err
		}
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
		return &scanIter{ctx: ctx, table: t, cols: cols, st: opStats{op: node.Describe()}}, nil

	case *FilterNode:
		child, err := buildIter(ctx, node.Child)
		if err != nil {
			return nil, err
		}
		schema, err := OutputSchema(ctx.DB, node.Child)
		if err != nil {
			return nil, err
		}
		return &filterIter{ctx: ctx, child: child, schema: schema, pred: node.Pred,
			nodes: exprNodes(node.Pred), st: opStats{op: node.Describe()}}, nil

	case *ProjectNode:
		child, err := buildIter(ctx, node.Child)
		if err != nil {
			return nil, err
		}
		schema, err := OutputSchema(ctx.DB, node.Child)
		if err != nil {
			return nil, err
		}
		total := 0
		for _, e := range node.Exprs {
			total += exprNodes(e)
		}
		return &projectIter{ctx: ctx, child: child, schema: schema, exprs: node.Exprs,
			nodes: total, st: opStats{op: node.Describe()}}, nil

	case *JoinNode:
		left, err := buildIter(ctx, node.Left)
		if err != nil {
			return nil, err
		}
		right, err := buildIter(ctx, node.Right)
		if err != nil {
			return nil, err
		}
		ls, err := OutputSchema(ctx.DB, node.Left)
		if err != nil {
			return nil, err
		}
		rs, err := OutputSchema(ctx.DB, node.Right)
		if err != nil {
			return nil, err
		}
		li, err := ls.IndexOf(node.LeftKey)
		if err != nil {
			return nil, err
		}
		ri, err := rs.IndexOf(node.RightKey)
		if err != nil {
			return nil, err
		}
		return &joinIter{ctx: ctx, left: left, right: right, leftIdx: li, rightIdx: ri,
			st: opStats{op: node.Describe()}}, nil

	case *AggNode:
		child, err := buildIter(ctx, node.Child)
		if err != nil {
			return nil, err
		}
		schema, err := OutputSchema(ctx.DB, node.Child)
		if err != nil {
			return nil, err
		}
		out, err := OutputSchema(ctx.DB, node)
		if err != nil {
			return nil, err
		}
		return &aggIter{ctx: ctx, child: child, node: node, childSchema: schema,
			outSchema: out, st: opStats{op: node.Describe()}}, nil

	case *SortNode:
		child, err := buildIter(ctx, node.Child)
		if err != nil {
			return nil, err
		}
		schema, err := OutputSchema(ctx.DB, node.Child)
		if err != nil {
			return nil, err
		}
		idx := make([]int, len(node.Keys))
		for i, k := range node.Keys {
			idx[i], err = schema.IndexOf(k.Col)
			if err != nil {
				return nil, err
			}
		}
		return &sortIter{ctx: ctx, child: child, keys: node.Keys, keyIdx: idx,
			st: opStats{op: node.Describe()}}, nil

	case *LimitNode:
		child, err := buildIter(ctx, node.Child)
		if err != nil {
			return nil, err
		}
		return &limitIter{ctx: ctx, child: child, n: node.N, st: opStats{op: node.Describe()}}, nil

	default:
		return nil, fmt.Errorf("vdb: row engine: unknown node %T", n)
	}
}

// --- scan ---

type scanIter struct {
	ctx   *ExecContext
	table *Table
	cols  []*Column
	width int // bytes per row the scan charges: the columns' WidthBytes, summed once per Open
	idx   int
	st    opStats
}

func (it *scanIter) Open() error {
	charge(it.ctx, &it.st, func() { it.ctx.chargeTableLoad(it.table) })
	it.idx = 0
	// A string column's width is its average string length, a pass over
	// every value, so it is summed once here rather than per row.
	it.width = 0
	for _, c := range it.cols {
		it.width += c.WidthBytes()
	}
	return nil
}

func (it *scanIter) Next() ([]Value, bool, error) {
	if it.idx >= it.table.NumRows() {
		return nil, false, nil
	}
	var row []Value
	charge(it.ctx, &it.st, func() {
		it.ctx.chargeTupleOverhead(1, hwsim.OpScan)
		it.ctx.chargeValueWork(len(it.cols), hwsim.OpScan)
		row = make([]Value, len(it.cols))
		for i, c := range it.cols {
			row[i] = c.Value(it.idx)
		}
		it.ctx.chargeScanMemory(1, it.width)
	})
	it.idx++
	it.st.rows++
	return row, true, nil
}

func (it *scanIter) Close()              {}
func (it *scanIter) stats() *opStats     { return &it.st }
func (it *scanIter) children() []rowIter { return nil }

// --- filter ---

type filterIter struct {
	ctx    *ExecContext
	child  rowIter
	schema *Schema
	pred   Expr
	nodes  int
	st     opStats
}

func (it *filterIter) Open() error { return it.child.Open() }

func (it *filterIter) Next() ([]Value, bool, error) {
	for {
		row, ok, err := it.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		var v Value
		var evalErr error
		charge(it.ctx, &it.st, func() {
			it.ctx.chargeTupleOverhead(1, hwsim.OpFilter)
			it.ctx.chargeValueWork(it.nodes, hwsim.OpFilter)
			v, evalErr = EvalRow(it.pred, it.schema, row)
		})
		if evalErr != nil {
			return nil, false, evalErr
		}
		if truthy(v) {
			it.st.rows++
			return row, true, nil
		}
	}
}

func (it *filterIter) Close()              { it.child.Close() }
func (it *filterIter) stats() *opStats     { return &it.st }
func (it *filterIter) children() []rowIter { return []rowIter{it.child} }

// --- project ---

type projectIter struct {
	ctx    *ExecContext
	child  rowIter
	schema *Schema
	exprs  []Expr
	nodes  int
	st     opStats
}

func (it *projectIter) Open() error { return it.child.Open() }

func (it *projectIter) Next() ([]Value, bool, error) {
	row, ok, err := it.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make([]Value, len(it.exprs))
	var evalErr error
	charge(it.ctx, &it.st, func() {
		it.ctx.chargeTupleOverhead(1, hwsim.OpProject)
		it.ctx.chargeValueWork(it.nodes, hwsim.OpProject)
		for i, e := range it.exprs {
			out[i], evalErr = EvalRow(e, it.schema, row)
			if evalErr != nil {
				return
			}
		}
	})
	if evalErr != nil {
		return nil, false, evalErr
	}
	it.st.rows++
	return out, true, nil
}

func (it *projectIter) Close()              { it.child.Close() }
func (it *projectIter) stats() *opStats     { return &it.st }
func (it *projectIter) children() []rowIter { return []rowIter{it.child} }

// --- hash join ---

type joinIter struct {
	ctx               *ExecContext
	left, right       rowIter
	leftIdx, rightIdx int
	build             map[string][][]Value
	buildBytes        int
	current           []Value   // current left row
	matches           [][]Value // remaining matches for current
	st                opStats
}

func (it *joinIter) Open() error {
	if err := it.right.Open(); err != nil {
		return err
	}
	it.build = make(map[string][][]Value)
	for {
		row, ok, err := it.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		charge(it.ctx, &it.st, func() {
			it.ctx.chargeTupleOverhead(1, hwsim.OpJoin)
			key := row[it.rightIdx].String()
			it.build[key] = append(it.build[key], row)
			it.buildBytes += 16 * len(row)
			it.ctx.chargeRandomMemory(1, it.buildBytes)
		})
	}
	return it.left.Open()
}

func (it *joinIter) Next() ([]Value, bool, error) {
	for {
		if len(it.matches) > 0 {
			right := it.matches[0]
			it.matches = it.matches[1:]
			var out []Value
			charge(it.ctx, &it.st, func() {
				it.ctx.chargeTupleOverhead(1, hwsim.OpJoin)
				out = make([]Value, 0, len(it.current)+len(right))
				out = append(out, it.current...)
				out = append(out, right...)
			})
			it.st.rows++
			return out, true, nil
		}
		row, ok, err := it.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		charge(it.ctx, &it.st, func() {
			it.ctx.chargeTupleOverhead(1, hwsim.OpJoin)
			it.ctx.chargeRandomMemory(1, it.buildBytes)
			it.current = row
			it.matches = it.build[row[it.leftIdx].String()]
		})
	}
}

func (it *joinIter) Close()              { it.left.Close(); it.right.Close() }
func (it *joinIter) stats() *opStats     { return &it.st }
func (it *joinIter) children() []rowIter { return []rowIter{it.left, it.right} }

// --- aggregate ---

type aggIter struct {
	ctx         *ExecContext
	child       rowIter
	node        *AggNode
	childSchema *Schema
	outSchema   *Schema
	out         *Table
	idx         int
	st          opStats
}

func (it *aggIter) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	gs, err := newGroupSet(it.node, it.childSchema)
	if err != nil {
		return err
	}
	groupIdx := make([]int, len(it.node.GroupBy))
	for i, g := range it.node.GroupBy {
		groupIdx[i], err = it.childSchema.IndexOf(g)
		if err != nil {
			return err
		}
	}
	keys := make([]Value, len(groupIdx))
	for {
		row, ok, err := it.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var foldErr error
		charge(it.ctx, &it.st, func() {
			it.ctx.chargeTupleOverhead(1, hwsim.OpAggregate)
			for i, gi := range groupIdx {
				keys[i] = row[gi]
			}
			g := gs.getOrCreate(keys)
			for j, spec := range it.node.Aggs {
				if spec.Expr == nil {
					g.accs[j].addCount()
					continue
				}
				it.ctx.chargeValueWork(exprNodes(spec.Expr), hwsim.OpAggregate)
				v, err := EvalRow(spec.Expr, it.childSchema, row)
				if err != nil {
					foldErr = err
					return
				}
				g.accs[j].add(v)
			}
		})
		if foldErr != nil {
			return foldErr
		}
	}
	it.out, err = gs.emit(it.outSchema, "agg")
	return err
}

func (it *aggIter) Next() ([]Value, bool, error) {
	if it.idx >= it.out.NumRows() {
		return nil, false, nil
	}
	var row []Value
	charge(it.ctx, &it.st, func() {
		it.ctx.chargeTupleOverhead(1, hwsim.OpAggregate)
		row = it.out.Row(it.idx)
	})
	it.idx++
	it.st.rows++
	return row, true, nil
}

func (it *aggIter) Close()              { it.child.Close() }
func (it *aggIter) stats() *opStats     { return &it.st }
func (it *aggIter) children() []rowIter { return []rowIter{it.child} }

// --- sort ---

type sortIter struct {
	ctx    *ExecContext
	child  rowIter
	keys   []SortKey
	keyIdx []int
	rows   [][]Value
	idx    int
	st     opStats
}

func (it *sortIter) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	for {
		row, ok, err := it.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		charge(it.ctx, &it.st, func() {
			it.ctx.chargeTupleOverhead(1, hwsim.OpSort)
			it.rows = append(it.rows, row)
		})
	}
	charge(it.ctx, &it.st, func() {
		n := len(it.rows)
		it.ctx.chargeValueWork(n*log2ceil(n)*len(it.keys), hwsim.OpSort)
		sort.SliceStable(it.rows, func(a, b int) bool {
			for i, k := range it.keys {
				va, vb := it.rows[a][it.keyIdx[i]], it.rows[b][it.keyIdx[i]]
				if va.Equal(vb) {
					continue
				}
				if k.Desc {
					return vb.Less(va)
				}
				return va.Less(vb)
			}
			return false
		})
	})
	return nil
}

func (it *sortIter) Next() ([]Value, bool, error) {
	if it.idx >= len(it.rows) {
		return nil, false, nil
	}
	row := it.rows[it.idx]
	it.idx++
	it.st.rows++
	return row, true, nil
}

func (it *sortIter) Close()              { it.child.Close() }
func (it *sortIter) stats() *opStats     { return &it.st }
func (it *sortIter) children() []rowIter { return []rowIter{it.child} }

// --- limit ---

type limitIter struct {
	ctx   *ExecContext
	child rowIter
	n     int
	seen  int
	st    opStats
}

func (it *limitIter) Open() error { it.seen = 0; return it.child.Open() }

func (it *limitIter) Next() ([]Value, bool, error) {
	if it.seen >= it.n {
		return nil, false, nil
	}
	row, ok, err := it.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	it.seen++
	it.st.rows++
	return row, true, nil
}

func (it *limitIter) Close()              { it.child.Close() }
func (it *limitIter) stats() *opStats     { return &it.st }
func (it *limitIter) children() []rowIter { return []rowIter{it.child} }
