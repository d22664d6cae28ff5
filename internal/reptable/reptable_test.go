package reptable

import (
	"math/rand/v2"
	"testing"
)

// TestTableMatchesMap holds Table to a map from key to the slot it was
// first given: over random runs of keys whose cells repeat, come back and
// change, with replicates in a cell's table, past its reach (the far
// map), negative, and met again after the table grew over them, every key
// gets its slot and is claimed exactly when it is new — from an empty
// Table and from a Reset one.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 1))
	reused := new(Table)
	for round := 0; round < 400; round++ {
		x := New(rng.IntN(3), rng.IntN(20))
		if round%2 == 1 {
			x = reused
			x.Reset()
		}
		want := make(map[[2]int]int)
		number := make(map[int]int) // the test's cell -> the Table's
		cell := 0
		for range 1 + rng.IntN(300) {
			if rng.IntN(6) == 0 {
				cell = rng.IntN(4)
			}
			rep := rng.IntN(12)
			switch rng.IntN(10) {
			case 0:
				rep = -1 - rng.IntN(3)
			case 1:
				rep = Reach + rng.IntN(3*Reach)
			}
			c, ok := number[cell]
			if !ok {
				c = x.AddCell()
				number[cell] = c
			}
			slot, claimed := x.Slot(c, rep)
			first, seen := want[[2]int{cell, rep}]
			if !seen {
				first = len(want)
				want[[2]int{cell, rep}] = first
			}
			if slot != first || claimed == seen {
				t.Fatalf("round %d: cell %d replicate %d got slot %d (claimed %v), want %d (claimed %v)", round, cell, rep, slot, claimed, first, !seen)
			}
		}
		if x.Len() != len(want) {
			t.Fatalf("round %d: %d slots for %d keys", round, x.Len(), len(want))
		}
	}
}
