package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"repro/internal/stats"
)

// compareFiles is the A/A (and later A/B) gate: two files of result
// documents, as -out writes them, are compared per workload × end-to-end
// metric the way the builder contract compares two sets of runs. It
// reports whether any pairing regressed.
//
// For each pairing it prints both medians, each side's spread (the
// distance between the first and third quartile as a share of the
// median), the relative change in the metric's worse direction, the
// bound, and a verdict:
//
//	ok          the second median is not worse than the first by more than the bound
//	regressed   it is
//	unresolved  a side's spread is wider than the bound, so the medians
//	            cannot carry the verdict — unless every run of the second
//	            side reads better than every run of the first
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tspread A\tn\tmedian B\tspread B\tn\tworse by\tbound\tverdict")
	for _, wl := range workloads {
		if a.runs[wl.name] == 0 && b.runs[wl.name] == 0 {
			continue // neither set ran it: a workload run by hand
		}
		for _, d := range endToEnd {
			xa, xb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t%d\t-\t-\t%d\t-\t%g\tmissing\n", wl.name, d.Name, d.Unit, len(xa), len(xb), d.Bound)
				regressed = true
				continue
			}
			ma, mb := stats.Median(xa), stats.Median(xb)
			sa, sb := spread(xa), spread(xb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			switch {
			// setup_s is exempt from the spread rule, as in the contract:
			// it is short, and only its medians are held to the bound.
			case d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound) && !allBetter(xa, xb, d.Better):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.2f%%\t%d\t%.6g\t%.2f%%\t%d\t%+.2f%%\t%g\t%s\n",
				wl.name, d.Name, d.Unit, ma, 100*sa, len(xa), mb, 100*sb, len(xb), 100*worse, d.Bound, verdict)
		}
		// Failures have no bound: one more than before is a regression.
		fa, fb := a.failed[wl.name], b.failed[wl.name]
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			regressed = true
		}
		fmt.Fprintf(tw, "%s\tfailed\tcount\t%d\t-\t%d\t%d\t-\t%d\t-\t0\t%s\n", wl.name, fa, a.runs[wl.name], fb, b.runs[wl.name], verdict)
	}
	if err := tw.Flush(); err != nil {
		return regressed, err
	}
	// What the machine did while each set was measured: a set whose runs
	// saw very different machines is scattered whatever the program does.
	for _, side := range []struct {
		path string
		rs   resultSet
	}{{pathA, a}, {pathB, b}} {
		if len(side.rs.steal) > 0 {
			fmt.Fprintf(w, "%s: host steal median %.1f%% of processor time, max %.1f%%; machine speed %.2f–%.2f of the reference machine's, median %.2f\n",
				side.path, 100*stats.Median(side.rs.steal), 100*stats.Max(side.rs.steal),
				stats.Min(side.rs.speed), stats.Max(side.rs.speed), stats.Median(side.rs.speed))
		}
	}
	return regressed, nil
}

// resultSet indexes the untraced runs of one result file.
type resultSet struct {
	metrics map[string][]float64 // workload + "\x00" + metric → one value per run
	failed  map[string]int
	runs    map[string]int
	steal   []float64 // host_steal of every run
	speed   []float64 // machine_speed of every run
}

func (rs resultSet) values(workload, metric string) []float64 {
	return rs.metrics[workload+"\x00"+metric]
}

func readResults(path string) (resultSet, error) {
	rs := resultSet{metrics: map[string][]float64{}, failed: map[string]int{}, runs: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return rs, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return rs, fmt.Errorf("%s: %w", path, err)
		}
		if res.Trace {
			continue
		}
		rs.runs[res.Workload]++
		rs.steal = append(rs.steal, res.HostSteal)
		rs.speed = append(rs.speed, res.MachineSpeed)
		rs.failed[res.Workload] += res.Failed
		for _, m := range res.Metrics {
			k := res.Workload + "\x00" + m.Name
			rs.metrics[k] = append(rs.metrics[k], m.Value)
		}
	}
	return rs, sc.Err()
}

// spread is the interquartile distance as a share of the median, with
// the quartiles Python's statistics.quantiles(xs, n=4) gives — the
// driver's own yardstick.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / stats.Median(s)
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return stats.Min(b) > stats.Max(a)
	}
	return stats.Max(b) < stats.Min(a)
}
