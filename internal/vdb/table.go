package vdb

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a named collection of equal-length columns.
type Table struct {
	Name string
	Cols []*Column
}

// NewTable validates column lengths and name uniqueness.
func NewTable(name string, cols ...*Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("vdb: table %q needs at least one column", name)
	}
	n := cols[0].Len()
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("vdb: table %q has an unnamed column", name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("vdb: table %q has duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
		if c.Len() != n {
			return nil, fmt.Errorf("vdb: table %q: column %q has %d rows, want %d", name, c.Name, c.Len(), n)
		}
	}
	return &Table{Name: name, Cols: cols}, nil
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Column returns the named column.
func (t *Table) Column(name string) (*Column, error) {
	for _, c := range t.Cols {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("vdb: table %q has no column %q", t.Name, name)
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = c.Name
	}
	return out
}

// Row returns row i boxed.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.Cols))
	for j, c := range t.Cols {
		out[j] = c.Value(i)
	}
	return out
}

// ByteSize estimates the table's storage footprint for the disk cost model.
func (t *Table) ByteSize() int64 {
	var total int64
	n := int64(t.NumRows())
	for _, c := range t.Cols {
		total += n * int64(c.WidthBytes())
	}
	return total
}

// CSV renders the table as C-locale CSV with a header row: the exact bytes
// a client would receive, which is what the output-sink cost model charges
// for.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.ColumnNames(), ","))
	b.WriteByte('\n')
	for i := 0; i < t.NumRows(); i++ {
		for j, c := range t.Cols {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(c.Value(i).String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedRows returns all rows sorted lexicographically by their rendered
// values — a canonical order for comparing results whose row order is not
// defined (e.g. hash aggregation output from different engines).
func (t *Table) SortedRows() [][]Value {
	rows := make([][]Value, t.NumRows())
	keys := make([]string, t.NumRows())
	for i := range rows {
		rows[i] = t.Row(i)
		parts := make([]string, len(rows[i]))
		for j, v := range rows[i] {
			parts[j] = v.String()
		}
		keys[i] = strings.Join(parts, "\x00")
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([][]Value, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// DB is a catalog of base tables.
type DB struct {
	tables map[string]*Table
	order  []string
}

// NewDB returns an empty catalog.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// AddTable registers a table; the name must be new.
func (db *DB) AddTable(t *Table) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("vdb: cannot add unnamed table")
	}
	if _, exists := db.tables[t.Name]; exists {
		return fmt.Errorf("vdb: table %q already exists", t.Name)
	}
	db.tables[t.Name] = t
	db.order = append(db.order, t.Name)
	return nil
}

// Table returns the named base table.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("vdb: unknown table %q", name)
	}
	return t, nil
}

// TableNames lists base tables in registration order.
func (db *DB) TableNames() []string { return append([]string(nil), db.order...) }
