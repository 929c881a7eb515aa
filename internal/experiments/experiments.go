// Package experiments regenerates the paper's evaluation: one experiment per
// figure (Figs. 2–10), plus ablations of the design choices DESIGN.md calls
// out. Each experiment prints the same rows/series the paper reports and
// returns them as structured data for tests and benchmarks.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"dssmem/internal/core"
	"dssmem/internal/machine"
	"dssmem/internal/rescache"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// Preset bundles a database scale factor with the matching machine memory
// scale (DESIGN.md §4: cache capacities divide by MemScale so the
// working-set:cache ratios match the paper's 200 MB : {2 MB, 32 KB, 4 MB}).
type Preset struct {
	Name     string
	SF       float64
	MemScale int
	Seed     uint64
}

// The standard presets.
var (
	// Tiny is for unit tests: seconds of wall time for a full figure.
	Tiny = Preset{Name: "tiny", SF: 0.002, MemScale: 256, Seed: 7}
	// Small is for benchmarks.
	Small = Preset{Name: "small", SF: 0.006, MemScale: 64, Seed: 7}
	// Medium is the default for the dssbench harness.
	Medium = Preset{Name: "medium", SF: 0.016, MemScale: 32, Seed: 7}
)

// PresetByName resolves a preset name.
func PresetByName(name string) (Preset, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "medium", "":
		return Medium, nil
	}
	return Preset{}, fmt.Errorf("experiments: unknown preset %q (tiny|small|medium)", name)
}

// ProcCounts is the multiprogramming sweep of the paper's Figs. 5–10.
var ProcCounts = []int{1, 2, 4, 6, 8}

// Env is a shared experimental environment: one generated database reused by
// every figure, plus a cache of completed runs (Figs. 2–4 share the same
// configurations, as do Figs. 5–10).
//
// Runs are keyed by the canonical digest of their full configuration
// (rescache.CanonicalRequest) — not by the caller-supplied tag, which is
// used only in error messages. Two ablations passing different
// workload.Options therefore never share a measurement, no matter how they
// are tagged.
type Env struct {
	Preset Preset
	Data   *tpch.Data

	// Results is the content-addressed run cache. Leave nil for a private
	// in-memory cache; the daemon points it at a shared, disk-persisted
	// store so measurements survive restarts and deduplicate across
	// requests.
	Results *rescache.Store

	// Ctx, when non-nil, bounds every measurement: its cancellation aborts
	// in-flight simulations at the next scheduling quantum (the daemon binds
	// it to the HTTP request). nil means context.Background().
	Ctx context.Context

	// Runner executes one workload run (nil selects workload.RunContext).
	// The daemon injects a runner that bounds global concurrency, applies
	// per-run timeouts and records metrics; tests inject failures.
	Runner func(context.Context, workload.Options) (*workload.Stats, error)

	// Parallelism bounds concurrent simulations (each is single-threaded).
	Parallelism int

	// SampleQuanta, when > 1, applies SMARTS interval sampling (see
	// workload.Options.SampleQuanta) to every measurement that does not set
	// it explicitly. Sampled measurements carry their own content digests:
	// estimates never collide with exact results.
	SampleQuanta int

	// Tally, when non-nil, accumulates host-side run accounting (runs,
	// warmup vs measured wall time, simulated references) across this env's
	// measurements. Cache hits do not tally: nothing ran.
	Tally *RunTally

	initMu sync.Mutex // guards lazy Results init

	// OnPoint, when non-nil, is called after each sweep point completes,
	// with the point's index, process count, content digest, and whether it
	// was a cache hit. The daemon uses it to journal sweep progress so a
	// killed process resumes without recomputing completed points. Called
	// concurrently from sweep goroutines.
	OnPoint func(idx, procs int, dig rescache.Digest, hit bool)
}

// NewEnv generates the preset's database once and returns the environment.
func NewEnv(p Preset) *Env {
	return NewEnvWith(p, tpch.Generate(p.SF, p.Seed))
}

// NewEnvWith reuses an already-generated database (benchmarks regenerate the
// run cache every iteration but share the data).
func NewEnvWith(p Preset, d *tpch.Data) *Env {
	return &Env{
		Preset:      p,
		Data:        d,
		Results:     rescache.NewMemory(),
		Parallelism: runtime.GOMAXPROCS(0),
	}
}

func (e *Env) results() *rescache.Store {
	e.initMu.Lock()
	defer e.initMu.Unlock()
	if e.Results == nil {
		e.Results = rescache.NewMemory()
	}
	return e.Results
}

func (e *Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

func (e *Env) runner() func(context.Context, workload.Options) (*workload.Stats, error) {
	if e.Runner != nil {
		return e.Runner
	}
	return workload.RunContext
}

// VClass returns the V-Class spec at this environment's scale.
func (e *Env) VClass() machine.Spec { return machine.VClassSpec(16, e.Preset.MemScale) }

// Origin returns the Origin 2000 spec at this environment's scale.
func (e *Env) Origin() machine.Spec { return machine.OriginSpec(32, e.Preset.MemScale) }

// Measure runs (or recalls) one configuration on an unmodified machine.
func (e *Env) Measure(spec machine.Spec, q tpch.QueryID, procs int) (core.Measurement, error) {
	return e.MeasureOpts(spec.Name, q, procs, workload.Options{Spec: spec})
}

// MeasureOpts runs one configuration with workload overrides; tag names the
// machine variant in error messages (ablations pass e.g.
// "vclass-nomigratory"). The cache key is the canonical digest of the full
// configuration, so the tag carries no identity.
func (e *Env) MeasureOpts(tag string, q tpch.QueryID, procs int, opts workload.Options) (core.Measurement, error) {
	m, _, err := e.MeasureCached(tag, q, procs, opts)
	return m, err
}

// CanonicalOptions normalizes opts exactly as a measurement run applies it:
// defaults made explicit so equivalent requests share a content digest, and
// non-identity fields (Data, Obs) cleared. rescache.DigestOptions over the
// result is the measurement's cache key.
func (e *Env) CanonicalOptions(q tpch.QueryID, procs int, opts workload.Options) workload.Options {
	opts.Data = nil
	opts.Obs = nil
	opts.SimFault = nil
	opts.Query = q
	opts.Processes = procs
	opts.Validate = true
	if opts.OSTimeScale == 0 {
		opts.OSTimeScale = e.Preset.MemScale
	}
	if opts.SampleQuanta == 0 {
		opts.SampleQuanta = e.SampleQuanta
	}
	if opts.SampleQuanta == 1 {
		// A period of 1 cannot sample (the controller clamps to 2, fully
		// detailed); normalize to exact so the digest matches the behavior.
		opts.SampleQuanta = 0
	}
	return opts
}

// MeasureCached is MeasureOpts exposing whether the measurement was answered
// from the cache (memory or disk) without running a simulation.
func (e *Env) MeasureCached(tag string, q tpch.QueryID, procs int, opts workload.Options) (core.Measurement, bool, error) {
	opts = e.CanonicalOptions(q, procs, opts)
	dig := rescache.DigestOptions(e.Preset.SF, e.Preset.Seed, opts)

	raw, hit, err := e.results().Do(e.ctx(), rescache.NSMeasurement, dig, func(runCtx context.Context) ([]byte, error) {
		o := opts
		o.Data = e.Data
		st, err := e.runner()(runCtx, o)
		if err != nil {
			return nil, err
		}
		e.Tally.add(st)
		return json.Marshal(core.FromStats(st))
	})
	if err != nil {
		return core.Measurement{}, false, fmt.Errorf("%s/%v/p%d: %w", tag, q, procs, err)
	}
	// Both cold and warm paths decode the stored JSON, so a given digest
	// yields byte-identical re-encodings regardless of cache state.
	var m core.Measurement
	if err := json.Unmarshal(raw, &m); err != nil {
		return core.Measurement{}, false, fmt.Errorf("%s/%v/p%d: corrupt cached measurement %s: %w", tag, q, procs, dig.Short(), err)
	}
	return m, hit, nil
}

// Sweep measures a query over ProcCounts on one machine variant and returns
// the series in ascending process count. It is the one-query case of the
// figure fan-out (see sweeps and measureAll): points run in parallel up to
// Env.Parallelism, largest process count first.
func (e *Env) Sweep(tag string, spec machine.Spec, q tpch.QueryID, opts workload.Options) (core.Series, error) {
	ss, err := e.sweeps(tag, spec, []tpch.QueryID{q}, opts)
	return ss[0], err
}

// sweeps measures every query in qs over ProcCounts on one machine variant as
// a single fan-out and returns one series per query, each in ascending process
// count. OnPoint fires once per completed point with the point's index within
// its query's sweep. On error the series hold whatever points completed.
func (e *Env) sweeps(tag string, spec machine.Spec, qs []tpch.QueryID, opts workload.Options) ([]core.Series, error) {
	opts.Spec = spec
	ms := make([]measurement, 0, len(qs)*len(ProcCounts))
	for _, q := range qs {
		for _, n := range ProcCounts {
			ms = append(ms, measurement{tag: tag, q: q, procs: n, opts: opts})
		}
	}
	var done func(i int, hit bool)
	if e.OnPoint != nil {
		done = func(i int, hit bool) {
			m := ms[i]
			e.OnPoint(i%len(ProcCounts), m.procs, rescache.DigestOptions(e.Preset.SF, e.Preset.Seed, e.CanonicalOptions(m.q, m.procs, m.opts)), hit)
		}
	}
	pts, err := e.measureAll(ms, done)
	out := make([]core.Series, len(qs))
	for i, q := range qs {
		out[i] = core.Series{Machine: spec.Name, Query: q.String(), Points: pts[i*len(ProcCounts) : (i+1)*len(ProcCounts)]}
	}
	return out, err
}

// measurement is one run a figure or sweep needs: MeasureOpts' arguments.
type measurement struct {
	tag   string
	q     tpch.QueryID
	procs int
	opts  workload.Options
}

// measureAll runs every measurement through one pool of Env.Parallelism
// workers and returns the results in ms order, so callers' tables and series
// do not depend on completion order.
//
// Dispatch is largest process count first, ties in ms order. A run's host
// time grows with its process count, so the longest runs start at once and
// the short ones fill the remaining cores around them; a figure can finish no
// sooner than its largest run.
//
// After a measurement fails no further one starts (runs already in flight
// finish). The error returned is that of the lowest-index failed measurement.
// done, when non-nil, is called after each successful measurement, from the
// worker goroutines.
func (e *Env) measureAll(ms []measurement, done func(i int, hit bool)) ([]core.Measurement, error) {
	order := make([]int, len(ms))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ms[order[a]].procs > ms[order[b]].procs })

	out := make([]core.Measurement, len(ms))
	errs := make([]error, len(ms))
	var (
		mu     sync.Mutex
		next   int
		failed bool
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if failed || next == len(order) {
			return 0, false
		}
		next++
		return order[next-1], true
	}
	var wg sync.WaitGroup
	for w := 0; w < min(e.parallelism(), len(ms)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := claim(); ok; i, ok = claim() {
				m := ms[i]
				var hit bool
				out[i], hit, errs[i] = e.MeasureCached(m.tag, m.q, m.procs, m.opts)
				if errs[i] != nil {
					mu.Lock()
					failed = true
					mu.Unlock()
				} else if done != nil {
					done(i, hit)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func (e *Env) parallelism() int {
	if e.Parallelism < 1 {
		return 1
	}
	return e.Parallelism
}

// RunTally accumulates host-side accounting across an env's simulated runs:
// how many ran, where the host wall-clock went (warmup prelude vs measured
// region) and how many memory references they simulated. Methods are safe for
// concurrent use; the zero value is ready.
type RunTally struct {
	mu  sync.Mutex
	tot TallyTotals
}

// TallyTotals are a RunTally's running totals.
type TallyTotals struct {
	Runs       int
	WarmupNS   int64
	MeasuredNS int64
	Refs       uint64 // simulated loads + stores
}

// add folds one run's stats in. Nil-safe on both sides so call sites stay
// unconditional.
func (t *RunTally) add(st *workload.Stats) {
	if t == nil || st == nil {
		return
	}
	var refs uint64
	for i := range st.Procs {
		refs += st.Procs[i].Counters.Loads + st.Procs[i].Counters.Stores
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tot.Runs++
	t.tot.WarmupNS += st.WarmupHostNS
	t.tot.MeasuredNS += st.MeasuredHostNS
	t.tot.Refs += refs
}

// Snapshot returns the current totals.
func (t *RunTally) Snapshot() TallyTotals {
	if t == nil {
		return TallyTotals{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tot
}
