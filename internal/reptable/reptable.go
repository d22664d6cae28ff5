// Package reptable numbers the distinct (cell, replicate) keys of a
// stream of records: a slot per key, in the order the keys are first
// met. Per design cell it keeps a table of the cell's slots indexed by
// replicate, so that a record finds or claims its slot by an index, not
// a map operation, in whatever order its cell's replicates come —
// sorted, as a merge or one worker writes them, shuffled, as several
// workers complete them, or descending. Runstore's Merge and Compact
// index pass and the warehouse's ingest fold both number records
// through it.
package reptable

import "slices"

// Table numbers (cell, replicate) keys. Cells are numbered by AddCell,
// in the order the caller meets them; the zero Table is empty and ready.
type Table struct {
	reps  [][]int32        // per cell, by replicate: its slot, -1 a hole
	far   map[[2]int]int32 // (cell, replicate) -> slot, for replicates no table holds; nil until one
	arena []int32          // the replicate tables grow in it (Room)
	born  int              // what a new cell's table is born with: the length of the table before
	slots int
}

// New returns a Table sized for about cells cells and keys keys.
func New(cells, keys int) *Table {
	return &Table{reps: make([][]int32, 0, cells), arena: make([]int32, 0, keys+4*cells)}
}

// Reset empties t and keeps its storage for the next stream.
func (t *Table) Reset() {
	clear(t.far) // keeps its buckets, as truncation keeps an array
	t.reps, t.arena, t.born, t.slots = t.reps[:0], t.arena[:0], 0, 0
}

// AddCell numbers a new cell and returns its number. Its table is born
// as long as the table of the cell added before it: a design's cells
// mostly hold as many replicates as each other.
func (t *Table) AddCell() int {
	if n := len(t.reps); n > 0 {
		t.born = len(t.reps[n-1])
	}
	t.reps = append(t.reps, nil)
	return len(t.reps) - 1
}

// Len returns the number of slots claimed: the distinct keys met.
func (t *Table) Len() int { return t.slots }

// Slot returns the slot of the key (cell, rep), and whether it was
// claimed now: no call before asked for the key. A new replicate goes to
// the cell's table when it is less than Reach past the table's end, so
// that the table grows by at most Reach entries per slot it holds, and to
// the far map otherwise — a negative replicate, or one far out. A hole of
// the table may be a replicate the far map took before the table grew
// over it, so the far map is asked before a replicate is claimed: a
// lookup in a nil or empty map, as it is unless a replicate went there,
// hashes nothing.
func (t *Table) Slot(cell, rep int) (slot int, claimed bool) {
	r := t.reps[cell]
	if uint(rep) < uint(len(r)) && r[rep] >= 0 {
		return int(r[rep]), false
	}
	if s, seen := t.far[[2]int{cell, rep}]; seen {
		return int(s), false
	}
	slot = t.slots
	t.slots++
	if rep >= 0 && rep < len(r)+Reach {
		for len(r) <= rep {
			r = append(Room(&t.arena, r, t.born), -1)
		}
		r[rep] = int32(slot)
		t.reps[cell] = r
	} else {
		if t.far == nil {
			t.far = make(map[[2]int]int32)
		}
		t.far[[2]int{cell, rep}] = int32(slot)
	}
	return slot, true
}

// Reach is how far past the end of a cell's replicate table a new
// replicate may be and still go to the table: far enough for the
// completion order of a scheduler's workers, which run a cell's
// replicates side by side and land them out of order by about as many as
// there are workers.
const Reach = 64

// Room returns s with room for one more element: s itself, or s moved to
// a larger span — of at least least elements, and 4 — cut from the end of
// *arena, so that many small tables grow inside one backing array. What
// a move leaves behind is dead until the arena is truncated or dropped.
// The span is reserved with slices.Grow: appending a make of it
// allocates the make under the race detector.
func Room[T any](arena *[]T, s []T, least int) []T {
	if len(s) < cap(s) {
		return s
	}
	n := max(2*len(s), least, 4)
	a := slices.Grow(*arena, n)
	at := len(a)
	*arena = a[:at+n]
	return append(a[at:at:at+n], s...)
}
