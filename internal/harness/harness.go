package harness

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/design"
	"repro/internal/stats"
)

// RunFunc executes one configuration once and returns the measured
// response variables. It is called Replicates times per design row.
type RunFunc func(a design.Assignment, replicate int) (map[string]float64, error)

// Experiment couples a design with the code that produces measurements.
type Experiment struct {
	Name      string
	Design    *design.Design
	Responses []string // response variable names the runner must produce
	Run       RunFunc
}

// Validate checks the experiment is runnable.
func (e *Experiment) Validate() error {
	switch {
	case e.Name == "":
		return fmt.Errorf("harness: experiment needs a name")
	case e.Design == nil || e.Design.NumRuns() == 0:
		return fmt.Errorf("harness: experiment %q needs a design with runs", e.Name)
	case len(e.Responses) == 0:
		return fmt.Errorf("harness: experiment %q declares no response variables", e.Name)
	case e.Run == nil:
		return fmt.Errorf("harness: experiment %q has no runner", e.Name)
	case e.Design.Replicates < 1:
		return fmt.Errorf("harness: experiment %q: Replicates = %d, need >= 1 (use >= 2 to measure experimental error)", e.Name, e.Design.Replicates)
	}
	seen := map[string]bool{}
	for _, r := range e.Responses {
		if r == "" || seen[r] {
			return fmt.Errorf("harness: experiment %q: empty or duplicate response %q", e.Name, r)
		}
		seen[r] = true
	}
	return nil
}

// ResultRow holds every replicate's responses for one design row.
type ResultRow struct {
	Assignment design.Assignment
	Reps       []map[string]float64
}

// ResultSet is a completed experiment.
type ResultSet struct {
	Experiment *Experiment
	Rows       []ResultRow
}

// Replicates extracts all replicate values of a response for design row r.
func (rs *ResultSet) Replicates(r int, response string) []float64 {
	out := make([]float64, 0, len(rs.Rows[r].Reps))
	for _, rep := range rs.Rows[r].Reps {
		out = append(out, rep[response])
	}
	return out
}

// Means returns the per-row replicate means of a response, in design row
// order — the y vector for effect estimation.
func (rs *ResultSet) Means(response string) []float64 {
	out := make([]float64, len(rs.Rows))
	for r := range rs.Rows {
		out[r] = stats.Mean(rs.Replicates(r, response))
	}
	return out
}

// CIs returns per-row confidence intervals of a response (needs >= 2
// replicates). Artifacts compute their own intervals; the sched
// adaptive tests check a stopped cell's precision through it.
func (rs *ResultSet) CIs(response string, confidence float64) ([]stats.Interval, error) {
	out := make([]stats.Interval, len(rs.Rows))
	for r := range rs.Rows {
		iv, err := stats.MeanCI(rs.Replicates(r, response), confidence)
		if err != nil {
			return nil, fmt.Errorf("harness: row %d: %w", r+1, err)
		}
		out[r] = iv
	}
	return out, nil
}

// Effects estimates factorial effects of a response. The experiment's
// design must be a full two-level factorial in canonical order (as built
// by design.TwoLevelFull or SignTable.Design).
func (rs *ResultSet) Effects(response string) (*design.Effects, error) {
	d := rs.Experiment.Design
	if d.Kind != design.KindTwoLevel {
		return nil, fmt.Errorf("harness: effects need a 2^k design, have %s", d.Kind)
	}
	st, err := design.NewSignTable(d.Factors)
	if err != nil {
		return nil, err
	}
	// Verify the design rows are in the canonical order the sign table
	// assumes.
	if st.Runs != d.NumRuns() {
		return nil, fmt.Errorf("harness: design has %d runs, sign table %d", d.NumRuns(), st.Runs)
	}
	for r := 0; r < st.Runs; r++ {
		for f := range d.Factors {
			if d.Rows[r][f] != st.LevelIndex(r, f) {
				return nil, fmt.Errorf("harness: design row %d is not in canonical sign-table order", r+1)
			}
		}
	}
	return design.EstimateEffects(st, rs.Means(response))
}

// AnalyzeReplicated performs the full replicated analysis of a response:
// effects, allocation of variation with an experimental-error share, and
// effect confidence intervals. Needs a canonical 2^k design with >= 2
// replicates.
func (rs *ResultSet) AnalyzeReplicated(response string, confidence float64) (*design.ReplicatedAnalysis, error) {
	// Reuse the canonical-order validation in Effects.
	if _, err := rs.Effects(response); err != nil {
		return nil, err
	}
	st, err := design.NewSignTable(rs.Experiment.Design.Factors)
	if err != nil {
		return nil, err
	}
	reps := make([][]float64, len(rs.Rows))
	for r := range rs.Rows {
		reps[r] = rs.Replicates(r, response)
	}
	return design.AnalyzeReplicated(st, reps, confidence)
}

// CSV renders the result set as C-locale CSV (factor columns followed by
// per-response replicate means), ready for the plot package's gnuplot
// pipeline.
func (rs *ResultSet) CSV() string {
	var b strings.Builder
	e := rs.Experiment
	cols := make([]string, 0, len(e.Design.Factors)+len(e.Responses))
	for _, f := range e.Design.Factors {
		cols = append(cols, f.Name)
	}
	cols = append(cols, e.Responses...)
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for r, row := range rs.Rows {
		parts := make([]string, 0, len(cols))
		for _, f := range e.Design.Factors {
			parts = append(parts, row.Assignment[f.Name])
		}
		for _, resp := range e.Responses {
			parts = append(parts, strconv.FormatFloat(stats.Mean(rs.Replicates(r, resp)), 'g', -1, 64))
		}
		b.WriteString(strings.Join(parts, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Report renders the result table plus, for 2^k designs, the fitted model
// and allocation of variation per response — and flags methodology
// mistakes (no replication) prominently.
func (rs *ResultSet) Report() string {
	var b strings.Builder
	e := rs.Experiment
	fmt.Fprintf(&b, "experiment: %s (%s, %d runs x %d replicates)\n",
		e.Name, e.Design.Kind, e.Design.NumRuns(), max(e.Design.Replicates, 1))
	for _, m := range design.Diagnose(e.Design, 0) {
		fmt.Fprintf(&b, "WARNING: %s\n", m)
	}

	// Result table: factors then mean (or mean+-CI) per response.
	tab := NewTable()
	header := []string{"run"}
	for _, f := range e.Design.Factors {
		header = append(header, f.Name)
	}
	for _, r := range e.Responses {
		header = append(header, r)
	}
	tab.Header(header...)
	// A sharded worker's ResultSet is partial: rows owned by other
	// shards carry no replicates. Probe every row — row 0 alone says
	// nothing when per-row replicate counts are heterogeneous.
	measured, replicated := 0, false
	for _, row := range rs.Rows {
		if len(row.Reps) > 0 {
			measured++
		}
		if len(row.Reps) >= 2 {
			replicated = true
		}
	}
	partial := measured < len(rs.Rows)
	for r, row := range rs.Rows {
		cells := []string{fmt.Sprintf("%d", r+1)}
		for _, f := range e.Design.Factors {
			cells = append(cells, row.Assignment[f.Name])
		}
		for _, resp := range e.Responses {
			vals := rs.Replicates(r, resp)
			if len(vals) == 0 {
				// A partial ResultSet — e.g. a shard worker's view of rows
				// other shards own. Render a placeholder, not NaN.
				cells = append(cells, "-")
				continue
			}
			if replicated {
				iv, err := stats.MeanCI(vals, 0.95)
				if err == nil {
					cells = append(cells, fmt.Sprintf("%.4g ±%.2g", iv.Mean, iv.HalfWidth()))
					continue
				}
			}
			cells = append(cells, fmt.Sprintf("%.4g", stats.Mean(vals)))
		}
		tab.Row(cells...)
	}
	b.WriteString(tab.String())

	if partial {
		// Effect estimation over missing rows would render a NaN model
		// and fabricated variation shares; say why it is absent instead.
		fmt.Fprintf(&b, "\npartial result set: %d of %d rows measured; analysis needs the complete design (merge the shard journals and replay)\n",
			measured, len(rs.Rows))
		return b.String()
	}
	if e.Design.Kind == design.KindTwoLevel {
		for _, resp := range e.Responses {
			// Prefer the replicated analysis (with its experimental-
			// error share and effect CIs) when replicates allow it.
			if replicated {
				if an, err := rs.AnalyzeReplicated(resp, 0.95); err == nil {
					fmt.Fprintf(&b, "\nresponse %s:\n%s", resp, an.String())
					continue
				}
			}
			ef, err := rs.Effects(resp)
			if err != nil {
				continue
			}
			fmt.Fprintf(&b, "\nresponse %s: %s\n", resp, ef.ModelString())
			fmt.Fprintf(&b, "variation explained:\n")
			for _, v := range ef.AllocateVariation() {
				fmt.Fprintf(&b, "  q%-6s %5.1f%%\n", v.Effect.NameWith(e.Design.Factors), v.Fraction*100)
			}
		}
	}
	return b.String()
}

// Table renders aligned monospace tables, the house style of every report
// in this repository.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// Header sets the column headers.
func (t *Table) Header(cells ...string) *Table { t.header = cells; return t }

// Row appends a row.
func (t *Table) Row(cells ...string) *Table {
	t.rows = append(t.rows, cells)
	return t
}

// String renders the table with two-space column gaps.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	grow := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	grow(t.header)
	for _, r := range t.rows {
		grow(r)
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", max(total-2, 1)))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
