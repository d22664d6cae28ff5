package vdb

import (
	"fmt"
	"strings"
)

// Expr is a scalar expression over the columns of a row set. Expressions
// are evaluated row-at-a-time by the RowEngine and column-at-a-time by the
// ColumnEngine; both paths share this AST.
type Expr interface {
	// TypeIn infers the expression's result type against a schema.
	TypeIn(s *Schema) (Type, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// Schema describes the columns visible to an expression.
type Schema struct {
	Names []string
	Types []Type
}

// SchemaOf extracts a table's schema.
func SchemaOf(t *Table) *Schema {
	s := &Schema{}
	for _, c := range t.Cols {
		s.Names = append(s.Names, c.Name)
		s.Types = append(s.Types, c.Type)
	}
	return s
}

// IndexOf returns the position of the named column, or an error.
func (s *Schema) IndexOf(name string) (int, error) {
	for i, n := range s.Names {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("vdb: unknown column %q (have %s)", name, strings.Join(s.Names, ", "))
}

// ColRef references a column by name.
type ColRef struct{ Name string }

// Col builds a column reference.
func Col(name string) Expr { return ColRef{Name: name} }

// TypeIn implements Expr.
func (c ColRef) TypeIn(s *Schema) (Type, error) {
	i, err := s.IndexOf(c.Name)
	if err != nil {
		return 0, err
	}
	return s.Types[i], nil
}

func (c ColRef) String() string { return c.Name }

// ConstExpr is a literal.
type ConstExpr struct{ Val Value }

// Int builds an integer literal.
func Int(i int64) Expr { return ConstExpr{Val: IntVal(i)} }

// Float builds a float literal.
func Float(f float64) Expr { return ConstExpr{Val: FloatVal(f)} }

// Str builds a string literal.
func Str(s string) Expr { return ConstExpr{Val: StrVal(s)} }

// TypeIn implements Expr.
func (c ConstExpr) TypeIn(*Schema) (Type, error) { return c.Val.Typ, nil }

func (c ConstExpr) String() string {
	if c.Val.Typ == TString {
		return "'" + c.Val.S + "'"
	}
	return c.Val.String()
}

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// ArithExpr applies an arithmetic operator to two numeric expressions.
// Int op Int yields Int (integer division truncates); anything involving a
// float yields Float.
type ArithExpr struct {
	Op   ArithOp
	L, R Expr
}

// Add builds l + r.
func Add(l, r Expr) Expr { return ArithExpr{Op: OpAdd, L: l, R: r} }

// Sub builds l - r.
func Sub(l, r Expr) Expr { return ArithExpr{Op: OpSub, L: l, R: r} }

// Mul builds l * r.
func Mul(l, r Expr) Expr { return ArithExpr{Op: OpMul, L: l, R: r} }

// Div builds l / r.
func Div(l, r Expr) Expr { return ArithExpr{Op: OpDiv, L: l, R: r} }

// TypeIn implements Expr.
func (e ArithExpr) TypeIn(s *Schema) (Type, error) {
	lt, err := e.L.TypeIn(s)
	if err != nil {
		return 0, err
	}
	rt, err := e.R.TypeIn(s)
	if err != nil {
		return 0, err
	}
	if lt == TString || rt == TString {
		return 0, fmt.Errorf("vdb: arithmetic on string in %s", e)
	}
	if lt == TInt && rt == TInt {
		return TInt, nil
	}
	return TFloat, nil
}

func (e ArithExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (o CmpOp) String() string { return [...]string{"=", "<>", "<", "<=", ">", ">="}[o] }

// CmpExpr compares two expressions; its result type is TInt (0/1).
type CmpExpr struct {
	Op   CmpOp
	L, R Expr
}

// Eq builds l = r.
func Eq(l, r Expr) Expr { return CmpExpr{Op: CmpEQ, L: l, R: r} }

// Ne builds l <> r.
func Ne(l, r Expr) Expr { return CmpExpr{Op: CmpNE, L: l, R: r} }

// Lt builds l < r.
func Lt(l, r Expr) Expr { return CmpExpr{Op: CmpLT, L: l, R: r} }

// Le builds l <= r.
func Le(l, r Expr) Expr { return CmpExpr{Op: CmpLE, L: l, R: r} }

// Gt builds l > r.
func Gt(l, r Expr) Expr { return CmpExpr{Op: CmpGT, L: l, R: r} }

// Ge builds l >= r.
func Ge(l, r Expr) Expr { return CmpExpr{Op: CmpGE, L: l, R: r} }

// TypeIn implements Expr.
func (e CmpExpr) TypeIn(s *Schema) (Type, error) {
	lt, err := e.L.TypeIn(s)
	if err != nil {
		return 0, err
	}
	rt, err := e.R.TypeIn(s)
	if err != nil {
		return 0, err
	}
	if (lt == TString) != (rt == TString) {
		return 0, fmt.Errorf("vdb: comparing string with numeric in %s", e)
	}
	return TInt, nil
}

func (e CmpExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// BoolOp is a boolean connective.
type BoolOp int

// Boolean connectives.
const (
	BoolAnd BoolOp = iota
	BoolOr
	BoolNot
)

func (o BoolOp) String() string { return [...]string{"AND", "OR", "NOT"}[o] }

// BoolExpr combines predicates; operands are treated as 0/1 ints.
type BoolExpr struct {
	Op   BoolOp
	L, R Expr // R is nil for NOT
}

// And builds l AND r.
func And(l, r Expr) Expr { return BoolExpr{Op: BoolAnd, L: l, R: r} }

// Or builds l OR r.
func Or(l, r Expr) Expr { return BoolExpr{Op: BoolOr, L: l, R: r} }

// Not builds NOT l.
func Not(l Expr) Expr { return BoolExpr{Op: BoolNot, L: l} }

// TypeIn implements Expr.
func (e BoolExpr) TypeIn(s *Schema) (Type, error) {
	if _, err := e.L.TypeIn(s); err != nil {
		return 0, err
	}
	if e.R != nil {
		if _, err := e.R.TypeIn(s); err != nil {
			return 0, err
		}
	}
	return TInt, nil
}

func (e BoolExpr) String() string {
	if e.Op == BoolNot {
		return fmt.Sprintf("(NOT %s)", e.L)
	}
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// LikeKind is the supported LIKE pattern family.
type LikeKind int

// LIKE pattern kinds.
const (
	LikePrefix   LikeKind = iota // LIKE 'abc%'
	LikeContains                 // LIKE '%abc%'
	LikeSuffix                   // LIKE '%abc'
)

// LikeExpr matches a string expression against a simple pattern.
type LikeExpr struct {
	Kind    LikeKind
	Operand Expr
	Pattern string
}

// HasPrefix builds operand LIKE 'pat%'.
func HasPrefix(operand Expr, pat string) Expr {
	return LikeExpr{Kind: LikePrefix, Operand: operand, Pattern: pat}
}

// Contains builds operand LIKE '%pat%'.
func Contains(operand Expr, pat string) Expr {
	return LikeExpr{Kind: LikeContains, Operand: operand, Pattern: pat}
}

// HasSuffix builds operand LIKE '%pat'.
func HasSuffix(operand Expr, pat string) Expr {
	return LikeExpr{Kind: LikeSuffix, Operand: operand, Pattern: pat}
}

// TypeIn implements Expr.
func (e LikeExpr) TypeIn(s *Schema) (Type, error) {
	t, err := e.Operand.TypeIn(s)
	if err != nil {
		return 0, err
	}
	if t != TString {
		return 0, fmt.Errorf("vdb: LIKE on non-string in %s", e)
	}
	return TInt, nil
}

func (e LikeExpr) String() string {
	var pat string
	switch e.Kind {
	case LikePrefix:
		pat = e.Pattern + "%"
	case LikeContains:
		pat = "%" + e.Pattern + "%"
	default:
		pat = "%" + e.Pattern
	}
	return fmt.Sprintf("(%s LIKE '%s')", e.Operand, pat)
}

func (e LikeExpr) match(s string) bool {
	switch e.Kind {
	case LikePrefix:
		return strings.HasPrefix(s, e.Pattern)
	case LikeContains:
		return strings.Contains(s, e.Pattern)
	default:
		return strings.HasSuffix(s, e.Pattern)
	}
}

// EvalRow evaluates an expression against one row of a schema-described
// row set — the tuple-at-a-time path.
func EvalRow(e Expr, s *Schema, row []Value) (Value, error) {
	switch ex := e.(type) {
	case ColRef:
		i, err := s.IndexOf(ex.Name)
		if err != nil {
			return Value{}, err
		}
		return row[i], nil
	case ConstExpr:
		return ex.Val, nil
	case ArithExpr:
		l, err := EvalRow(ex.L, s, row)
		if err != nil {
			return Value{}, err
		}
		r, err := EvalRow(ex.R, s, row)
		if err != nil {
			return Value{}, err
		}
		return evalArith(ex.Op, l, r)
	case CmpExpr:
		l, err := EvalRow(ex.L, s, row)
		if err != nil {
			return Value{}, err
		}
		r, err := EvalRow(ex.R, s, row)
		if err != nil {
			return Value{}, err
		}
		return boolVal(evalCmp(ex.Op, l, r)), nil
	case BoolExpr:
		l, err := EvalRow(ex.L, s, row)
		if err != nil {
			return Value{}, err
		}
		if ex.Op == BoolNot {
			return boolVal(!truthy(l)), nil
		}
		r, err := EvalRow(ex.R, s, row)
		if err != nil {
			return Value{}, err
		}
		if ex.Op == BoolAnd {
			return boolVal(truthy(l) && truthy(r)), nil
		}
		return boolVal(truthy(l) || truthy(r)), nil
	case LikeExpr:
		v, err := EvalRow(ex.Operand, s, row)
		if err != nil {
			return Value{}, err
		}
		return boolVal(ex.match(v.S)), nil
	default:
		return Value{}, fmt.Errorf("vdb: unknown expression %T", e)
	}
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

func truthy(v Value) bool { return v.AsFloat() != 0 }

func evalArith(op ArithOp, l, r Value) (Value, error) {
	if l.Typ == TString || r.Typ == TString {
		return Value{}, fmt.Errorf("vdb: arithmetic on string value")
	}
	if l.Typ == TInt && r.Typ == TInt {
		switch op {
		case OpAdd:
			return IntVal(l.I + r.I), nil
		case OpSub:
			return IntVal(l.I - r.I), nil
		case OpMul:
			return IntVal(l.I * r.I), nil
		default:
			if r.I == 0 {
				return Value{}, fmt.Errorf("vdb: integer division by zero")
			}
			return IntVal(l.I / r.I), nil
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return FloatVal(lf + rf), nil
	case OpSub:
		return FloatVal(lf - rf), nil
	case OpMul:
		return FloatVal(lf * rf), nil
	default:
		if rf == 0 {
			return Value{}, fmt.Errorf("vdb: division by zero")
		}
		return FloatVal(lf / rf), nil
	}
}

func evalCmp(op CmpOp, l, r Value) bool {
	var lt, eq bool
	if l.Typ == TString && r.Typ == TString {
		lt, eq = l.S < r.S, l.S == r.S
	} else {
		lf, rf := l.AsFloat(), r.AsFloat()
		lt, eq = lf < rf, lf == rf
	}
	switch op {
	case CmpEQ:
		return eq
	case CmpNE:
		return !eq
	case CmpLT:
		return lt
	case CmpLE:
		return lt || eq
	case CmpGT:
		return !lt && !eq
	default: // CmpGE
		return !lt
	}
}
