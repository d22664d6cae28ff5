package plot

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements locale-safe number handling. The paper's war story
// (slides 212-215): a results file containing "13.666" was pasted into a
// spreadsheet whose locale treated '.' as a thousands separator, silently
// becoming 13666 and wrecking the graph. All formatting here is C-locale;
// DetectLocaleHazards finds the values such an import mangled.

// FormatFloat renders a float in C-locale (period decimal separator, no
// grouping), the only representation safe to exchange between tools.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// LocaleMangle simulates what a '.'-as-thousands-separator locale does to a
// C-locale decimal string on import: the separator is dropped, so "13.666"
// becomes 13666 and "12.3333" becomes 123333, while integer-looking values
// survive. Used to demonstrate and test the hazard.
func LocaleMangle(s string) string {
	return strings.ReplaceAll(s, ".", "")
}

// Hazard describes one suspected locale-mangled value.
type Hazard struct {
	Row, Col int
	Value    float64
	Baseline float64 // the column's lower-quartile magnitude
}

func (h Hazard) String() string {
	return fmt.Sprintf("row %d col %d: value %g is >=100x the column's lower quartile %g — possible locale-mangled decimal",
		h.Row+1, h.Col+1, h.Value, h.Baseline)
}

// DetectLocaleHazards scans parsed numeric rows for values at least 100x
// the column's lower-quartile magnitude — the signature that a decimal
// point was eaten during a locale-mismatched import (13.666 -> 13666). The
// lower quartile, not the median, is the baseline: in the paper's war
// story half the column was mangled, which drags the median up with the
// corruption. Columns whose baseline is zero are skipped. This is a
// heuristic: columns legitimately spanning over two orders of magnitude in
// one unit will trigger it, which for timing tables is itself worth a look.
func DetectLocaleHazards(rows [][]float64) []Hazard {
	if len(rows) == 0 {
		return nil
	}
	nCols := len(rows[0])
	var out []Hazard
	for c := 0; c < nCols; c++ {
		vals := make([]float64, 0, len(rows))
		for _, r := range rows {
			if c < len(r) {
				vals = append(vals, abs(r[c]))
			}
		}
		base := lowerQuartile(vals)
		if base == 0 {
			continue
		}
		for i, r := range rows {
			if c < len(r) && abs(r[c]) >= 100*base {
				out = append(out, Hazard{Row: i, Col: c, Value: r[c], Baseline: base})
			}
		}
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func lowerQuartile(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	cp := append([]float64(nil), vals...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/4]
}
