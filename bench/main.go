// Command bench is the repository's benchmark: five closed-loop
// workloads that follow one record along its journey (runner → sched →
// runstore append+fsync → client spool → HTTP → collector group commit →
// merge → compact → archivestore → warehouse refresh → query), five
// end-to-end metrics a user of the system sees, reported at a reference
// machine's speed (probe.go), and a per-layer budget timed from outside
// the layers' public seams. README.md in this directory is the metric
// catalogue; BENCHMARK.json at the repository root is the contract the
// catalogue is checked against.
//
// One invocation measures one workload:
//
//	bash bench/run.sh --workload local-run --seed 1 --seconds 10 --trace 0
//
// and prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 alternates untraced and traced repetitions and
// reports the per-layer metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/runstore"
	"repro/internal/stats"
	"repro/internal/sysinfo"
)

const (
	// runSeconds is how long the builder contract measures one run. The
	// driver makes 4 + 22 runs per gated workload; with three of them, 70
	// runs of 36 s, 6 s each for building, set-up and the uncounted
	// repetition, and two compilations fit the contract's 3420 s with a
	// tenth to spare, and a run holds 25 to 80 repetitions.
	runSeconds = 36
	// A run builds its fixtures at least minSetupRounds times, and goes on
	// until setupSeconds have been spent or maxSetupRounds made; setup_s
	// is the median, so neither one slow build nor, where a build lasts
	// milliseconds, the timer's own noise sets the metric.
	minSetupRounds = 5
	maxSetupRounds = 51
	setupSeconds   = 1.0
	// A repetition during which the hypervisor withheld more than
	// stealLimit of the processor time measures the host, not the program,
	// and is set aside — unless fewer than minCalm remain: then the host
	// was never quiet, and every repetition counts.
	stealLimit = 0.02
	minCalm    = 5
	// buildDir holds everything the benchmark writes except the trace:
	// the compiled binary, the Go build cache and the working directories.
	buildDir = ".bench_build"
	// traceDir holds trace-<workload>.json, the spans of the traced
	// repetitions.
	traceDir = "bench/out"
)

// config is one invocation's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	out      string
}

func main() {
	var cfg config
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: alternate untraced and traced repetitions and report the per-layer metrics")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long to keep starting repetitions")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies record counts (never shapes); the smoke test runs at 0.05")
	flag.StringVar(&cfg.out, "out", "", "append this run's result document (metrics with spread, environment) to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare two result files written with -out: bench -compare a.jsonl b.jsonl")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue in this program defines it")
	flag.Parse()
	cfg.trace = *trace != 0

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		res, err := measure(ctx, cfg, os.Stdout)
		stop()
		if err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// environment is the paper's requirement that a number names the machine
// and the settings it came from.
type environment struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Callers    int    `json:"callers"`
	Note       string `json:"note,omitempty"`
	MemoryMiB  int64  `json:"memory_mib"`
	OS         string `json:"os"`
	Go         string `json:"go"`
	Filesystem string `json:"filesystem"` // of the working directories: it sets fsync cost
	Commit     string `json:"commit"`
}

func captureEnvironment(dir string, callers int) environment {
	hw, sw, _ := sysinfo.Capture()
	env := environment{
		CPU:        hw.CPUModel,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Callers:    callers,
		MemoryMiB:  memTotalMiB(), // sysinfo.Capture leaves RAMBytes to the caller
		OS:         sw.OS + "/" + runtime.GOARCH,
		Go:         runtime.Version(),
		Filesystem: fsType(dir),
		Commit:     "unknown", // a driver checkout is not a git repository
	}
	if env.Cores < 2 {
		env.Note = "nproc is 1: every workload runs with one caller"
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// cpuJiffies reads the first line of /proc/stat: the jiffies the
// hypervisor gave to someone else while this machine had work for the
// processor (steal), and the jiffies of every kind. Zeros where the file
// is missing.
func cpuJiffies() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			continue // the "cpu" label
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of the processor time since the given reading
// that the hypervisor withheld.
func stealShare(stealBefore, jiffiesBefore float64) float64 {
	steal, jiffies := cpuJiffies()
	if jiffies <= jiffiesBefore {
		return 0
	}
	return (steal - stealBefore) / (jiffies - jiffiesBefore)
}

// calm returns the repetitions the host left alone; see stealLimit.
func calm[T any](reps []T, steal func(T) float64) []T {
	var kept []T
	for _, r := range reps {
		if steal(r) <= stealLimit {
			kept = append(kept, r)
		}
	}
	if len(kept) < minCalm {
		return reps
	}
	return kept
}

// memTotalMiB reads MemTotal from /proc/meminfo, 0 where there is none.
func memTotalMiB() int64 {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	var kib int64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "MemTotal: %d kB", &kib); err == nil {
			return kib >> 10
		}
	}
	return 0
}

// metricOut is one reported metric with the spread it came with.
type metricOut struct {
	metricDef         // Bound is 0 on per-layer metrics
	Value     float64 `json:"value"` // the median, or the pooled percentile
	// Raw is Value before the conversion to the reference machine's speed:
	// the clock's own reading. Equal to Value for counts and per-layer metrics.
	Raw float64 `json:"raw"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	N   int     `json:"n"` // repetitions, or pooled samples for a percentile
	// CILo and CIHi are the 95 % Student-t interval of the mean across
	// repetitions; absent for pooled percentiles and single repetitions.
	CILo float64 `json:"ci_lo,omitempty"`
	CIHi float64 `json:"ci_hi,omitempty"`
}

// result is one run's document: what -out appends and -compare reads.
type result struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Scale    float64     `json:"scale"`
	Trace    bool        `json:"trace"`
	Env      environment `json:"env"`
	// HostSteal is the share of the run's processor time the hypervisor
	// gave to other tenants while this machine had work for it. Timings
	// measured above a few percent are the host's, not the program's.
	HostSteal float64 `json:"host_steal"`
	// MachineSpeed is the median over the repetitions of the machine's
	// speed as the probe measured it, 1 being the reference machine's.
	MachineSpeed float64     `json:"machine_speed"`
	Repetitions  int         `json:"repetitions"`
	SetAside     int         `json:"set_aside"` // of Repetitions: measured under host steal, not counted
	Correct      bool        `json:"correct"`
	Attempted    int         `json:"attempted"`
	Failed       int         `json:"failed"`
	Failures     []string    `json:"failures,omitempty"`
	Metrics      []metricOut `json:"metrics"`
}

// across summarizes one value per repetition: the median is the metric.
func across(d metricDef, xs []float64) metricOut {
	m := metricOut{metricDef: d, Value: stats.Median(xs), Min: stats.Min(xs), Max: stats.Max(xs), N: len(xs)}
	if ci, err := stats.MeanCI(xs, 0.95); err == nil {
		m.CILo, m.CIHi = ci.Lo, ci.Hi
	}
	return m
}

// pooled summarizes samples pooled over repetitions by one percentile.
func pooled(d metricDef, xs []float64, pct float64) metricOut {
	if len(xs) == 0 {
		return metricOut{metricDef: d}
	}
	return metricOut{metricDef: d, Value: stats.Percentile(xs, pct), Min: stats.Min(xs), Max: stats.Max(xs), N: len(xs)}
}

// measure runs one workload and prints its report; the last line of
// stdout is the builder contract's JSON object.
func measure(ctx context.Context, cfg config, stdout io.Writer) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	// One process generates all load with at most nproc callers; the
	// runtime gets as many processors as the busiest workload has callers.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	r := &run{ctx: ctx, seed: cfg.seed, scale: cfg.scale, callers: min(w.callers, runtime.NumCPU())}

	// Working directories live under the checkout (the contract allows
	// writes nowhere else) and go away on exit, SIGINT included: the
	// context stops the repetition in flight and the defer still runs.
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	env := captureEnvironment(work, r.callers)
	stealBefore, jiffiesBefore := cpuJiffies()

	// The probe runs before and after everything that is timed; see probe.go.
	pr, err := newProber(work)
	if err != nil {
		return nil, err
	}
	defer pr.close() // a scratch file: every write to it was synced and checked
	before, err := pr.measure()
	if err != nil {
		return nil, err
	}
	// speed probes again and returns the machine's speed since the probe
	// before.
	speed := func() (float64, error) {
		after, err := pr.measure()
		v := speedBetween(before, after)
		before = after
		return v, err
	}

	// Set-up, several times over: the metric is the median. Every working
	// directory stays until the run ends: deleting one mid-run would send
	// discards to the disk the next repetition's fsyncs wait for.
	var rep repFunc
	var setups []timing
	for i, begun := 0, time.Now(); i < minSetupRounds || (time.Since(begun).Seconds() < setupSeconds && i < maxSetupRounds); i++ {
		dir := filepath.Join(work, "setup-"+strconv.Itoa(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err = w.setup(r, dir)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		v, err := speed()
		if err != nil {
			return nil, err
		}
		setups = append(setups, timing{d.Seconds(), v})
	}

	// One repetition nobody counts lets lazy set-up finish (listener and
	// connection set-up, heap growth, page cache of the fixtures).
	runRep := func(i int, tr *tracer) (sample, *meter, error) {
		dir := filepath.Join(work, "rep-"+strconv.Itoa(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return sample{}, nil, err
		}
		m := newMeter(tr)
		stealBefore, jiffiesBefore := cpuJiffies()
		s, err := rep(dir, m)
		s.steal, s.latencies = stealShare(stealBefore, jiffiesBefore), m.ops
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		if err != nil {
			err = fmt.Errorf("%s: repetition %d: %w", w.name, i, err)
		}
		return s, m, err
	}
	if _, _, err := runRep(0, nil); err != nil {
		return nil, err
	}
	if _, err := speed(); err != nil {
		return nil, err
	}

	var (
		plain  []sample // untraced repetitions: the end-to-end metrics
		traces []*traced
		spans  []span
		sum    checks
	)
	start := time.Now()
	for i := 1; ; i++ {
		// With tracing on, repetitions alternate so both kinds see the
		// same phases of the shared machine.
		var tr *tracer
		if cfg.trace && i%2 == 0 {
			tr = &tracer{workload: w.name, rep: i}
		}
		s, m, err := runRep(i, tr)
		if err != nil {
			return nil, err
		}
		if s.speed, err = speed(); err != nil {
			return nil, err
		}
		sum.attempted += s.attempted
		sum.failed += s.failed
		sum.failures = append(sum.failures, s.failures...)
		if tr == nil {
			plain = append(plain, s)
		} else {
			traces = append(traces, &traced{
				sample: s, callers: r.callers, meter: m,
				budget: summarize(subtree(tr.spans, m.root)), all: summarize(tr.spans),
			})
			spans = append(spans, tr.spans...)
		}
		enough := len(plain) > 0 && (!cfg.trace || len(traces) > 0)
		if enough && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}

	res := &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace,
		Env: env, HostSteal: stealShare(stealBefore, jiffiesBefore), Repetitions: len(plain) + len(traces),
		Correct: sum.failed == 0, Attempted: sum.attempted, Failed: sum.failed, Failures: sum.failures,
	}
	var speeds []float64
	for _, s := range plain {
		speeds = append(speeds, s.speed)
	}
	for _, t := range traces {
		speeds = append(speeds, t.sample.speed)
	}
	res.MachineSpeed = stats.Median(speeds)
	plain = calm(plain, func(s sample) float64 { return s.steal })
	traces = calm(traces, func(t *traced) float64 { return t.sample.steal })
	res.SetAside = res.Repetitions - len(plain) - len(traces)
	if cfg.trace {
		res.Metrics = layerMetrics(r, plain, traces)
		if err := writeTrace(w.name, spans); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEndMetrics(setups, plain)
	}
	report(stdout, res)
	if cfg.out != "" {
		if err := appendResult(cfg.out, res); err != nil {
			return nil, err
		}
	}
	return res, printContractLine(stdout, res)
}

// timing is a duration in seconds and the machine's speed while it ran.
type timing struct{ seconds, speed float64 }

// endToEndMetrics reduces the untraced repetitions to the catalogue's
// end-to-end metrics, in catalogue order. Every duration is converted to
// the reference machine's (multiplied by the speed of the machine while it
// was measured); Raw is the same statistic of the durations as read.
func endToEndMetrics(setups []timing, plain []sample) []metricOut {
	// each reduces one value per repetition to its median.
	each := func(d metricDef, f func(s sample, speed float64) float64) metricOut {
		xs, raw := make([]float64, len(plain)), make([]float64, len(plain))
		for i, s := range plain {
			xs[i], raw[i] = f(s, s.speed), f(s, 1)
		}
		m := across(d, xs)
		m.Raw = stats.Median(raw)
		return m
	}
	var ops, rawOps []float64
	for _, s := range plain {
		for _, ms := range s.latencies {
			ops, rawOps = append(ops, ms*s.speed), append(rawOps, ms)
		}
	}
	out := make([]metricOut, len(endToEnd))
	for i, d := range endToEnd {
		switch d.Name {
		case "setup_s":
			xs, raw := make([]float64, len(setups)), make([]float64, len(setups))
			for k, t := range setups {
				xs[k], raw[k] = t.seconds*t.speed, t.seconds
			}
			out[i] = across(d, xs)
			out[i].Raw = stats.Median(raw)
		case "records_per_s":
			out[i] = each(d, func(s sample, speed float64) float64 { return float64(s.records) / (s.wall.Seconds() * speed) })
		case "resume_s":
			out[i] = each(d, func(s sample, speed float64) float64 { return s.resume.Seconds() * speed })
		case "op_ms_p50":
			out[i] = pooled(d, ops, 50)
			out[i].Raw = stats.Percentile(rawOps, 50)
		case "bytes_per_record":
			out[i] = each(d, func(s sample, _ float64) float64 { return float64(s.bytes) / float64(s.stored) })
		}
	}
	return out
}

// layerMetrics reduces the traced repetitions to the per-layer metrics,
// in catalogue order: scalars by their median across repetitions,
// latencies by a percentile of the pooled spans.
func layerMetrics(r *run, plain []sample, traces []*traced) []metricOut {
	wall := func(ss []sample) []float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = s.wall.Seconds()
		}
		return xs
	}
	tracedSamples := make([]sample, len(traces))
	for i, t := range traces {
		tracedSamples[i] = t.sample
	}
	runLevel := codecCosts(r.seed)
	runLevel["bench.trace_overhead_ratio"] = stats.Median(wall(tracedSamples))/stats.Median(wall(plain)) - 1
	var ops []float64
	for _, s := range plain {
		ops = append(ops, s.latencies...)
	}
	if len(ops) > 0 {
		runLevel["bench.op_ms_p99"] = stats.Percentile(ops, 99)
	}

	out := make([]metricOut, len(perLayer))
	for i, d := range perLayer {
		switch {
		case d.scalar != nil:
			xs := make([]float64, len(traces))
			for k, t := range traces {
				xs[k] = d.scalar(t)
			}
			out[i] = across(d.def(), xs)
		case d.span != "":
			var xs []float64
			for _, t := range traces {
				for _, sec := range t.all.durs[d.span] {
					xs = append(xs, sec*d.scale)
				}
			}
			out[i] = pooled(d.def(), xs, d.pct)
		default:
			v := runLevel[d.name]
			out[i] = metricOut{metricDef: d.def(), Value: v, Min: v, Max: v, N: 1}
		}
		out[i].Raw = out[i].Value
	}
	return out
}

// codecCosts times the four wire codecs over an in-memory buffer: the
// floor under every layer that encodes or decodes a record.
func codecCosts(seed uint64) map[string]float64 {
	const cells, reps, rounds = 200, 10, 5
	recs, err := records(seed, 0, cells, reps, 0)
	if err != nil {
		return map[string]float64{}
	}
	out := map[string]float64{}
	for _, codec := range []struct {
		name   string
		encode func(io.Writer, runstore.Record) error
		decode func(io.Reader, func(runstore.Record) error) (int, error)
	}{
		{"json", runstore.EncodeWire, runstore.DecodeWire},
		{"binary", runstore.EncodeWireBinary, runstore.DecodeWireBinary},
	} {
		var enc, dec []float64
		var buf bytes.Buffer
		for i := 0; i < rounds; i++ {
			buf.Reset()
			start := time.Now()
			for _, rec := range recs {
				codec.encode(&buf, rec)
			}
			enc = append(enc, float64(time.Since(start).Nanoseconds())/float64(len(recs)))
			start = time.Now()
			codec.decode(bytes.NewReader(buf.Bytes()), func(runstore.Record) error { return nil })
			dec = append(dec, float64(time.Since(start).Nanoseconds())/float64(len(recs)))
		}
		out["runstore.encode_"+codec.name+"_ns_per_record"] = stats.Median(enc)
		out["runstore.decode_"+codec.name+"_ns_per_record"] = stats.Median(dec)
	}
	return out
}

// report prints the run for a reader: environment, then every metric
// with unit, direction, bound and spread.
func report(w io.Writer, res *result) {
	e := res.Env
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  scale %g  repetitions %d (%d set aside)  host steal %.1f%%  machine speed %.2f\n",
		res.Workload, res.Seed, res.Seconds, res.Scale, res.Repetitions, res.SetAside, 100*res.HostSteal, res.MachineSpeed)
	fmt.Fprintf(w, "env: %s, nproc %d, GOMAXPROCS %d, callers %d, %d MiB, %s, %s, fs %s, commit %s\n",
		e.CPU, e.Cores, e.GOMAXPROCS, e.Callers, e.MemoryMiB, e.OS, e.Go, e.Filesystem, e.Commit)
	if e.Note != "" {
		fmt.Fprintln(w, "env note:", e.Note)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbetter\tbound\tvalue\tas clocked\tmin\tmax\tn\t95% CI of mean")
	for _, m := range res.Metrics {
		bound, ci := "-", "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%g", m.Bound)
		}
		if m.CILo != 0 || m.CIHi != 0 {
			ci = fmt.Sprintf("[%.5g, %.5g]", m.CILo, m.CIHi)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%d\t%s\n", m.Name, m.Unit, m.Better, bound, m.Value, m.Raw, m.Min, m.Max, m.N, ci)
	}
	tw.Flush()
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
}

// printContractLine prints the one JSON object the driver reads.
func printContractLine(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func appendResult(path string, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the spans kept in memory during the run.
func writeTrace(workload string, spans []span) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(traceDir, "trace-"+workload+".json"), data, 0o644)
}

// manifestJSON renders BENCHMARK.json from the catalogue, so the file
// and the program cannot name different metrics.
func manifestJSON() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		if w.gated {
			m.Workloads = append(m.Workloads, named{w.name, w.why})
		}
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	data, _ := json.MarshalIndent(m, "", "  ")
	return append(data, '\n')
}
