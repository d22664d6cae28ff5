package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of a registry, sorted by metric
// name. It marshals directly to the JSON exposition format; use
// WritePrometheus for the text format.
type Snapshot struct {
	// Metrics lists every registered instrument's state.
	Metrics []Metric `json:"metrics"`
}

// Metric is one instrument's state inside a Snapshot.
type Metric struct {
	// Name is the registered metric name.
	Name string `json:"name"`
	// Type is "counter", "gauge", or "histogram".
	Type string `json:"type"`
	// Help is the registered help text.
	Help string `json:"help,omitempty"`
	// Value carries a counter's or gauge's current value; zero for
	// histograms.
	Value float64 `json:"value"`
	// Count is a histogram's observation count (the +Inf bucket).
	Count int64 `json:"count,omitempty"`
	// Sum is a histogram's sum of observed values.
	Sum float64 `json:"sum,omitempty"`
	// Buckets are a histogram's cumulative buckets, ascending by bound.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one cumulative histogram bucket: the count of observations
// at or below the LE bound.
type Bucket struct {
	// LE is the bucket's inclusive upper bound, formatted as a
	// Prometheus le label value ("0.005", "1", "+Inf").
	LE string `json:"le"`
	// Count is the cumulative observation count.
	Count int64 `json:"count"`
}

// Get returns the named metric from the snapshot. Nothing ships a call
// to it: it is how the collector, runstore and root-package tests, and
// the root examples, read one series.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Series counts the exposition series the snapshot renders: one per
// counter or gauge, and per histogram one per bucket plus the _sum and
// _count series — the unit the acceptance bar "N distinct series" is
// measured in.
func (s Snapshot) Series() int {
	n := 0
	for _, m := range s.Metrics {
		if m.Type == "histogram" {
			n += len(m.Buckets) + 2
		} else {
			n++
		}
	}
	return n
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE line per
// metric family, then one sample line per series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, m := range s.Metrics {
		if m.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.Name, escapeHelp(m.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.Name, m.Type)
		switch m.Type {
		case "histogram":
			for _, bk := range m.Buckets {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.Name, bk.LE, bk.Count)
			}
			fmt.Fprintf(&b, "%s_sum %s\n", m.Name, formatValue(m.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", m.Name, m.Count)
		default:
			fmt.Fprintf(&b, "%s %s\n", m.Name, formatValue(m.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// escapeHelp escapes backslashes and newlines per the text-format
// grammar.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value in the shortest exact form.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLE renders a bucket bound as its le label value.
func formatLE(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
