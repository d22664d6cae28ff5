package vdb

import "fmt"

// OutputSchema infers the result schema of a plan against a catalog,
// type-checking expressions along the way. Both engines validate plans
// through it before executing.
func OutputSchema(db *DB, n Node) (*Schema, error) {
	switch node := n.(type) {
	case *ScanNode:
		t, err := db.Table(node.Table)
		if err != nil {
			return nil, err
		}
		if len(node.Cols) == 0 {
			return SchemaOf(t), nil
		}
		s := &Schema{}
		for _, name := range node.Cols {
			c, err := t.Column(name)
			if err != nil {
				return nil, err
			}
			s.Names = append(s.Names, c.Name)
			s.Types = append(s.Types, c.Type)
		}
		return s, nil

	case *FilterNode:
		child, err := OutputSchema(db, node.Child)
		if err != nil {
			return nil, err
		}
		if _, err := node.Pred.TypeIn(child); err != nil {
			return nil, fmt.Errorf("vdb: filter predicate: %w", err)
		}
		return child, nil

	case *ProjectNode:
		child, err := OutputSchema(db, node.Child)
		if err != nil {
			return nil, err
		}
		if len(node.Exprs) == 0 || len(node.Exprs) != len(node.Names) {
			return nil, fmt.Errorf("vdb: project needs matching exprs (%d) and names (%d)", len(node.Exprs), len(node.Names))
		}
		s := &Schema{}
		seen := map[string]bool{}
		for i, e := range node.Exprs {
			t, err := e.TypeIn(child)
			if err != nil {
				return nil, fmt.Errorf("vdb: project expr %s: %w", e, err)
			}
			if node.Names[i] == "" || seen[node.Names[i]] {
				return nil, fmt.Errorf("vdb: project output name %q empty or duplicate", node.Names[i])
			}
			seen[node.Names[i]] = true
			s.Names = append(s.Names, node.Names[i])
			s.Types = append(s.Types, t)
		}
		return s, nil

	case *JoinNode:
		left, err := OutputSchema(db, node.Left)
		if err != nil {
			return nil, err
		}
		right, err := OutputSchema(db, node.Right)
		if err != nil {
			return nil, err
		}
		li, err := left.IndexOf(node.LeftKey)
		if err != nil {
			return nil, fmt.Errorf("vdb: join left key: %w", err)
		}
		ri, err := right.IndexOf(node.RightKey)
		if err != nil {
			return nil, fmt.Errorf("vdb: join right key: %w", err)
		}
		if left.Types[li] != right.Types[ri] {
			return nil, fmt.Errorf("vdb: join key type mismatch: %s is %s, %s is %s",
				node.LeftKey, left.Types[li], node.RightKey, right.Types[ri])
		}
		if left.Types[li] == TFloat {
			return nil, fmt.Errorf("vdb: joining on float keys is not supported")
		}
		s := &Schema{
			Names: append(append([]string{}, left.Names...), right.Names...),
			Types: append(append([]Type{}, left.Types...), right.Types...),
		}
		seen := map[string]bool{}
		for _, name := range s.Names {
			if seen[name] {
				return nil, fmt.Errorf("vdb: join output has duplicate column %q; project/rename first", name)
			}
			seen[name] = true
		}
		return s, nil

	case *AggNode:
		child, err := OutputSchema(db, node.Child)
		if err != nil {
			return nil, err
		}
		if len(node.Aggs) == 0 {
			return nil, fmt.Errorf("vdb: aggregate needs at least one aggregate function")
		}
		s := &Schema{}
		seen := map[string]bool{}
		for _, g := range node.GroupBy {
			i, err := child.IndexOf(g)
			if err != nil {
				return nil, fmt.Errorf("vdb: group-by: %w", err)
			}
			s.Names = append(s.Names, g)
			s.Types = append(s.Types, child.Types[i])
			seen[g] = true
		}
		for _, a := range node.Aggs {
			t, err := aggResultType(a, child)
			if err != nil {
				return nil, err
			}
			if a.Name == "" || seen[a.Name] {
				return nil, fmt.Errorf("vdb: aggregate output name %q empty or duplicate", a.Name)
			}
			seen[a.Name] = true
			s.Names = append(s.Names, a.Name)
			s.Types = append(s.Types, t)
		}
		return s, nil

	case *SortNode:
		child, err := OutputSchema(db, node.Child)
		if err != nil {
			return nil, err
		}
		for _, k := range node.Keys {
			if _, err := child.IndexOf(k.Col); err != nil {
				return nil, fmt.Errorf("vdb: sort key: %w", err)
			}
		}
		return child, nil

	case *LimitNode:
		if node.N < 0 {
			return nil, fmt.Errorf("vdb: negative limit %d", node.N)
		}
		return OutputSchema(db, node.Child)

	default:
		return nil, fmt.Errorf("vdb: unknown plan node %T", n)
	}
}

func aggResultType(a AggSpec, child *Schema) (Type, error) {
	switch a.Func {
	case AggCount, AggCountDistinct:
		if a.Func == AggCountDistinct && a.Expr == nil {
			return 0, fmt.Errorf("vdb: count_distinct needs an expression")
		}
		if a.Expr != nil {
			if _, err := a.Expr.TypeIn(child); err != nil {
				return 0, fmt.Errorf("vdb: aggregate %s: %w", a, err)
			}
		}
		return TInt, nil
	case AggAvg:
		if a.Expr == nil {
			return 0, fmt.Errorf("vdb: %s needs an expression", a.Func)
		}
		t, err := a.Expr.TypeIn(child)
		if err != nil {
			return 0, fmt.Errorf("vdb: aggregate %s: %w", a, err)
		}
		if t == TString {
			return 0, fmt.Errorf("vdb: avg over string in %s", a)
		}
		return TFloat, nil
	case AggSum:
		if a.Expr == nil {
			return 0, fmt.Errorf("vdb: %s needs an expression", a.Func)
		}
		t, err := a.Expr.TypeIn(child)
		if err != nil {
			return 0, fmt.Errorf("vdb: aggregate %s: %w", a, err)
		}
		if t == TString {
			return 0, fmt.Errorf("vdb: sum over string in %s", a)
		}
		return t, nil
	case AggMin, AggMax:
		if a.Expr == nil {
			return 0, fmt.Errorf("vdb: %s needs an expression", a.Func)
		}
		return a.Expr.TypeIn(child)
	default:
		return 0, fmt.Errorf("vdb: unknown aggregate %v", a.Func)
	}
}

// exprNodes counts AST nodes, the unit of per-row expression-evaluation
// work for the cost model.
func exprNodes(e Expr) int {
	switch ex := e.(type) {
	case ColRef, ConstExpr:
		return 1
	case ArithExpr:
		return 1 + exprNodes(ex.L) + exprNodes(ex.R)
	case CmpExpr:
		return 1 + exprNodes(ex.L) + exprNodes(ex.R)
	case BoolExpr:
		n := 1 + exprNodes(ex.L)
		if ex.R != nil {
			n += exprNodes(ex.R)
		}
		return n
	case LikeExpr:
		return 1 + exprNodes(ex.Operand)
	default:
		return 1
	}
}
