// Command perfbench is the repository benchmark. It runs one workload for a
// fixed host-time budget, checks the program's outputs, and prints as its
// last line one JSON object: the end-to-end metrics, or with --trace 1 the
// per-layer metrics. README.md lists every metric with its unit and the
// layer it belongs to.
//
//	bash perfbench/run.sh --workload fig5-origin-exact --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dssmem/internal/experiments"
)

// workers is the host parallelism every workload uses: the sweep fan-out of
// the figure workloads and the closed-loop client count of serve-mixed. It
// is fixed so results do not depend on the host's core count.
const workers = 2

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	budget   time.Duration // measuring time; passes continue until it is spent
	trace    bool
	spans    string // Chrome trace-event output of a traced run

	// Sizes; the smoke test shrinks them.
	figPreset   experiments.Preset // figure workloads (seed replaced by --seed)
	servePreset experiments.Preset // serve-mixed (keeps the preset's seed)
	requests    int                // serve-mixed requests per pass
	minPasses   int
}

func defaultOptions() options {
	return options{
		seed:        experiments.Small.Seed,
		budget:      10 * time.Second,
		figPreset:   experiments.Small,
		servePreset: experiments.Tiny,
		requests:    2000,
		minPasses:   3,
	}
}

// benchWorkload is one benchmark input set.
type benchWorkload struct {
	name string
	run  func(options, io.Writer) (*outcome, error)
}

var workloads = []benchWorkload{
	{"fig5-origin-exact", figureWorkload{fig: 5}.run},
	{"fig9-vclass-sampled", figureWorkload{fig: 9, sampleQuanta: 8}.run},
	{"serve-mixed", runServe},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// outcome is what a workload reports: operations attempted and failed (runs
// for the figure workloads, HTTP requests for serve-mixed) and metrics.
type outcome struct {
	attempted, failed int
	metrics           metrics
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", o.seed, "workload seed: TPC-H generation seed of the figure workloads, request-stream seed of serve-mixed")
	seconds := flag.Float64("seconds", o.budget.Seconds(), "host seconds to keep measuring (at least 3 passes run)")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans file, tracing overhead")
	flag.StringVar(&o.spans, "spans", "", "traced run's Chrome trace-event file ('' = .bench_build/spans-<workload>-<seed>.json)")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traced == 1
	o.budget = time.Duration(*seconds * float64(time.Second))
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	}
	if runtime.GOMAXPROCS(0) > workers {
		runtime.GOMAXPROCS(workers)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes the selected workload and assembles the result line.
func run(o options, w io.Writer) (*result, error) {
	for _, wl := range workloads {
		if wl.name != o.workload {
			continue
		}
		out, err := wl.run(o, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		if out.attempted < 1 {
			return nil, fmt.Errorf("%s: nothing attempted", wl.name)
		}
		if o.trace {
			out.metrics.set("failed_frac", float64(out.failed)/float64(out.attempted), "ratio")
		}
		printMetrics(w, out)
		return &result{
			Correct:   out.failed == 0,
			Attempted: out.attempted,
			Failed:    out.failed,
			Metrics:   out.metrics,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
}

// passes runs fn at least o.minPasses times, then while another pass, as
// long as the last one, fits in the measuring budget. Each pass starts after
// a garbage collection, so no pass pays for the previous one's garbage. It
// returns each pass's peak resident set in MiB.
func passes(o options, fn func(i int) error) ([]float64, error) {
	deadline := time.Now().Add(o.budget)
	var last time.Duration
	var rss []float64
	for i := 0; i < o.minPasses || time.Now().Add(last).Before(deadline); i++ {
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		last = time.Since(start)
		mb, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, mb)
	}
	return rss, nil
}

func printMetrics(w io.Writer, out *outcome) {
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "attempted %d, failed %d\n", out.attempted, out.failed)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// resetPeakRSS starts a new resident-set high-water mark (Linux
// /proc/self/clear_refs, value 5).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the resident-set high-water mark since the last reset, in
// MiB (VmHWM in /proc/self/status).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
