// Package design implements the experiment-design chapter of the paper:
// factors and levels, simple (one-at-a-time) designs, full factorial
// designs, 2^k designs with sign-table effect estimation, allocation of
// variation, and fractional factorial 2^(k-p) designs with confounding
// (alias) algebra — following Raj Jain's "The Art of Computer Systems
// Performance Analysis", which the paper draws on.
package design

import (
	"errors"
	"fmt"
	"strings"
)

// Factor is a variable that affects the response: a parameter to be set or
// an environment variable, with a finite list of levels (possible values).
type Factor struct {
	Name   string
	Levels []string
}

// NewFactor builds a factor, validating that it has a name and at least two
// levels (a single-level "factor" cannot have an effect).
func NewFactor(name string, levels ...string) (Factor, error) {
	if name == "" {
		return Factor{}, errors.New("design: factor needs a name")
	}
	if len(levels) < 2 {
		return Factor{}, fmt.Errorf("design: factor %q needs at least 2 levels, got %d", name, len(levels))
	}
	seen := make(map[string]bool, len(levels))
	for _, l := range levels {
		if seen[l] {
			return Factor{}, fmt.Errorf("design: factor %q has duplicate level %q", name, l)
		}
		seen[l] = true
	}
	return Factor{Name: name, Levels: levels}, nil
}

// MustFactor is NewFactor that panics on error, for statically known factors
// in tests and examples.
func MustFactor(name string, levels ...string) Factor {
	f, err := NewFactor(name, levels...)
	if err != nil {
		panic(err)
	}
	return f
}

// TwoLevel reports whether the factor has exactly two levels, as the 2^k
// designs require.
func (f Factor) TwoLevel() bool { return len(f.Levels) == 2 }

// Coded returns the coded value for level index i of a two-level factor:
// -1 for the first level, +1 for the second (the paper's xA convention).
func (f Factor) Coded(i int) (float64, error) {
	if !f.TwoLevel() {
		return 0, fmt.Errorf("design: factor %q has %d levels; coded values are defined for 2", f.Name, len(f.Levels))
	}
	switch i {
	case 0:
		return -1, nil
	case 1:
		return 1, nil
	default:
		return 0, fmt.Errorf("design: level index %d out of range for factor %q", i, f.Name)
	}
}

// Assignment maps factor names to chosen level values for one experiment.
type Assignment map[string]string

// String renders the assignment deterministically in factor declaration
// order when used through Design.AssignmentString; standalone it sorts keys.
func (a Assignment) String() string {
	var few [8]string // a design with more factors than this pays one allocation more
	keys := few[:0]
	size := 0
	for k, v := range a {
		keys = append(keys, k)
		size += len(k) + len("=") + len(v) + len(" ")
	}
	// insertion sort (tiny maps)
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	b.Grow(size)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(a[k])
	}
	return b.String()
}
