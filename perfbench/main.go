// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process and prints, as the last line of standard output, one
// JSON object with the outcome of its output checks and its metrics:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it alternates untraced and traced passes and reports the
// per-layer metrics, timed from outside around calls into the program's
// public functions, plus the tracing overhead. README.md in this directory
// describes the workloads, the metrics and which layer moves which metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options are one run's settings: the command-line flags plus the workload
// sizes, which the smoke test shrinks.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	batch   map[string]batchSize
	serve   serveSize
	// digests are the reference export digests the batch workloads check
	// their cells against, per workload and seed (see digests.go).
	digests map[string]map[uint64][]string
	log     io.Writer // human-readable progress and the metric table
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome, printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's checks and metrics.
type report struct {
	log       io.Writer
	attempted int
	failed    int
	metrics   map[string]metric
	samples   map[string]int // sample count behind each percentile metric
}

func newReport(log io.Writer) *report {
	return &report{log: log, metrics: map[string]metric{}, samples: map[string]int{}}
}

// check counts one output check, logging it when it fails.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "check failed: "+format+"\n", args...)
	}
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// setQuantile reports the q-quantile of samples (in seconds) in ms.
func (r *report) setQuantile(name string, samples []float64, q float64) {
	r.set(name, quantile(samples, q)*1e3, "ms")
	r.samples[name] = len(samples)
}

// setPassQuantile reports, in ms, the median over passes of each pass's
// q-quantile of its samples (in seconds), so that one pass disturbed by
// the host cannot move the figure; the sample count is the total.
func (r *report) setPassQuantile(name string, passes [][]float64, q float64) {
	var per []float64
	n := 0
	for _, s := range passes {
		if len(s) > 0 {
			per = append(per, quantile(s, q))
			n += len(s)
		}
	}
	r.set(name, quantile(per, 0.5)*1e3, "ms")
	r.samples[name] = n
}

func (r *report) result() result {
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// printTable writes every metric by name with its unit, and the sample
// count next to each percentile.
func (r *report) printTable() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-34s %14.6g %s", n, m.Value, m.Unit)
		if k, ok := r.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Fprintln(r.log, line)
	}
	fmt.Fprintf(r.log, "checks: %d attempted, %d failed\n", r.attempted, r.failed)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"sweep":  runSweep,
	"global": runGlobal,
	"serve":  runServe,
}

func main() {
	name := flag.String("workload", "", "workload: sweep, global or serve")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measurement time per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	digests := flag.Bool("print-digests", false, "print the batch workload's per-cell export digests for --seed and exit")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|global|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	opt := defaultOptions()
	opt.seed, opt.seconds, opt.trace = *seed, *seconds, *trace == 1
	opt.log = os.Stdout
	if *digests {
		if err := printDigests(*name, opt); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(run, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.printTable()
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runWorkload runs one workload and adds the process-wide metrics.
func runWorkload(run func(options, *report) error, opt options) (*report, error) {
	rep := newReport(opt.log)
	if err := run(opt, rep); err != nil {
		return nil, err
	}
	if !opt.trace {
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	return rep, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// medianSetup runs setup at least three times and until a second has
// passed, and returns the last result with the median set-up time. Every
// earlier result is released before the next set-up starts, so repeated
// set-ups do not inflate the peak RSS.
func medianSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	begin := time.Now()
	for len(times) < 3 || time.Since(begin) < time.Second {
		if len(times) > 0 {
			release(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, quantile(times, 0.5), nil
}

// runtimeStats is a runtime.MemStats delta over some measured passes.
type runtimeStats struct {
	allocMB, mallocs, gcCycles, gcPauseS float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (s *runtimeStats) add(before, after runtime.MemStats) {
	s.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	s.mallocs += float64(after.Mallocs - before.Mallocs)
	s.gcCycles += float64(after.NumGC - before.NumGC)
	s.gcPauseS += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
}

// report writes the per-pass means of the runtime layer.
func (s runtimeStats) report(r *report, passes int) {
	p := float64(max(passes, 1))
	r.set("runtime.alloc_mb", s.allocMB/p, "MB")
	r.set("runtime.mallocs", s.mallocs/p, "count")
	r.set("runtime.gc_cycles", s.gcCycles/p, "count")
	r.set("runtime.gc_pause_s", s.gcPauseS/p, "s")
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// untilDeadline reports whether another pass should start: always for the
// first `least` passes, then while the measurement time lasts.
func untilDeadline(start time.Time, seconds float64, done, least int) bool {
	return done < least || time.Since(start).Seconds() < seconds
}
