package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"dssmem/internal/experiments"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// figureWorkload regenerates one of the paper's process-sweep figures with a
// fresh experiments.Env per pass: an empty run cache, so every one of the
// figure's 15 runs (3 queries × 5 process counts) simulates.
type figureWorkload struct {
	fig          int
	sampleQuanta int // 0 = exact; >1 = SMARTS sampling period in quanta
}

// runRecord is one simulation run as the benchmark saw it through
// experiments.Env.Runner.
type runRecord struct {
	key    string
	dur    time.Duration
	digest string // SHA-256 of the run's simulated statistics
	stats  *workload.Stats
	err    error
}

// recorder is the Env.Runner the benchmark installs: it runs the default
// runner (workload.RunContext) and records each run.
type recorder struct {
	spans  *spanLog
	parent int
	mu     sync.Mutex
	runs   []runRecord
}

func runKey(o workload.Options) string {
	return fmt.Sprintf("%s/%v/p%d/t%d", o.Spec.Name, o.Query, o.Processes, o.Trial)
}

func (r *recorder) run(ctx context.Context, o workload.Options) (*workload.Stats, error) {
	key := runKey(o)
	_, end := r.spans.begin("experiments", "run "+key, r.parent, map[string]any{
		"machine": o.Spec.Name, "query": o.Query.String(), "procs": o.Processes, "trial": o.Trial})
	start := time.Now()
	st, err := workload.RunContext(ctx, o)
	dur := time.Since(start)
	end()
	rec := runRecord{key: key, dur: dur, stats: st, err: err}
	if err == nil {
		// Stats' JSON holds every simulated statistic and no host timing.
		b, jerr := json.Marshal(st)
		if jerr != nil {
			rec.err = jerr
		} else {
			sum := sha256.Sum256(b)
			rec.digest = hex.EncodeToString(sum[:])
		}
	}
	r.mu.Lock()
	r.runs = append(r.runs, rec)
	r.mu.Unlock()
	return st, err
}

// figPass is one regeneration of the figure.
type figPass struct {
	setup, wall time.Duration
	runs        []runRecord
	figure      string // SHA-256 of the figure's table and series
	err         error
	allocs      uint64
}

func (w figureWorkload) pass(preset experiments.Preset, spans *spanLog, label string) figPass {
	var p figPass
	t0 := time.Now()
	env := experiments.NewEnvWith(preset, tpch.Generate(preset.SF, preset.Seed))
	env.Parallelism = workers
	env.SampleQuanta = w.sampleQuanta
	p.setup = time.Since(t0)

	id, end := spans.begin("experiments", fmt.Sprintf("fig%d %s", w.fig, label), 0, nil)
	rec := &recorder{spans: spans, parent: id}
	env.Runner = rec.run
	m0 := mallocs()
	t1 := time.Now()
	res, err := experiments.RunFigure(env, w.fig, nil)
	p.wall = time.Since(t1)
	p.allocs = mallocs() - m0
	end()
	p.runs, p.err = rec.runs, err
	if err == nil {
		b, jerr := json.Marshal(res)
		if jerr != nil {
			p.err = jerr
		} else {
			sum := sha256.Sum256(b)
			p.figure = hex.EncodeToString(sum[:])
		}
	}
	return p
}

// figureRuns is the number of simulations one regeneration performs.
func figureRuns() int { return len(tpch.AllQueries) * len(experiments.ProcCounts) }

func (w figureWorkload) run(o options, out io.Writer) (*outcome, error) {
	preset := o.figPreset
	preset.Seed = o.seed
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
	}

	res := &outcome{metrics: metrics{}}
	want := map[string]string{} // run key -> statistics digest of the first pass
	var wantFigure string
	var all, traced []figPass
	var untracedWall []float64
	rss, err := passes(o, func(i int) error {
		// A traced run alternates untraced and traced passes, so tracing
		// overhead is measured under the same conditions.
		var log *spanLog
		label := "untraced"
		if o.trace && i%2 == 1 {
			log, label = spans, "traced"
		}
		p := w.pass(preset, log, label)
		// A failed figure stops early: the runs it never started count as
		// failed, and a failure no run reported counts once.
		res.attempted += max(figureRuns(), len(p.runs))
		failed := max(0, figureRuns()-len(p.runs))
		for _, r := range p.runs {
			switch {
			case r.err != nil:
				failed++
			case want[r.key] == "":
				want[r.key] = r.digest
			case want[r.key] != r.digest:
				fmt.Fprintf(out, "pass %d: %s statistics digest %.12s, first pass had %.12s\n", i, r.key, r.digest, want[r.key])
				failed++
			}
		}
		if p.err != nil {
			fmt.Fprintf(out, "pass %d: %v\n", i, p.err)
			failed = max(failed, 1)
		}
		res.failed += failed
		if wantFigure == "" {
			wantFigure = p.figure
		} else if p.figure != "" && p.figure != wantFigure {
			fmt.Fprintf(out, "pass %d: figure table differs from the first pass\n", i)
			res.failed++
		}
		fmt.Fprintf(out, "pass %d %s: setup %.2f ms, wall %.3f s\n", i, label, ms(p.setup), p.wall.Seconds())
		all = append(all, p)
		if log != nil {
			traced = append(traced, p)
		} else {
			untracedWall = append(untracedWall, p.wall.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload fig%d preset=%s seed=%d sample_quanta=%d passes=%d\n",
		w.fig, preset.Name, preset.Seed, w.sampleQuanta, len(all))
	fmt.Fprintf(out, "sim_digest %s\n", simDigest(want, wantFigure))

	counts := sumStats(all[0].runs)
	if !o.trace {
		var setup, wall, refsPerS, runsPerS []float64
		for _, p := range all {
			setup = append(setup, p.setup.Seconds())
			wall = append(wall, p.wall.Seconds())
			refsPerS = append(refsPerS, float64(counts.refs)/p.wall.Seconds())
			runsPerS = append(runsPerS, float64(len(p.runs))/p.wall.Seconds())
		}
		res.metrics.set("wall_s", median(wall), "s")
		res.metrics.set("setup_s", median(setup), "s")
		res.metrics.set("refs_per_host_s", median(refsPerS), "1/s")
		res.metrics.set("req_per_s", median(runsPerS), "1/s")
		res.metrics.set("peak_rss_mb", median(rss), "MB")
		return res, nil
	}

	// Traced: per-run host time, allocations and core use from the traced
	// passes; simulated counts from the first pass (they repeat exactly).
	var runMS, tracedWall []float64
	var busy, wall time.Duration
	var allocs uint64
	var nruns int
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
		wall += p.wall
		allocs += p.allocs
		for _, r := range p.runs {
			runMS = append(runMS, ms(r.dur))
			busy += r.dur
			nruns++
		}
	}
	m := res.metrics
	// Every run of a cold figure is a run-cache miss.
	m.set("miss_p50_ms", median(runMS), "ms")
	m.set("run.ms.p50", median(runMS), "ms")
	m.set("run.ms.max", quantile(runMS, 1), "ms")
	m.set("run.allocs", float64(allocs)/float64(max(nruns, 1)), "count")
	m.set("experiments.core_util", busy.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	setTraceOverhead(m, untracedWall, tracedWall)
	counts.set(m)
	setServiceZero(m)

	if err := ledger(m, preset, tpch.Generate(preset.SF, preset.Seed), spans); err != nil {
		return nil, err
	}
	fmt.Fprintln(out, "per-layer spans:")
	spans.writeTable(out)
	if err := spans.writeChrome(o.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", o.spans)
	return res, nil
}

// simDigest combines the per-run statistics digests and the figure digest.
func simDigest(runs map[string]string, figure string) string {
	keys := make([]string, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, runs[k])
	}
	fmt.Fprintf(h, "figure=%s\n", figure)
	return fmt.Sprintf("runs=%d %x", len(keys), h.Sum(nil))
}

// simCounts are simulated statistics summed over a pass's runs. They are a
// pure function of the workload and seed.
type simCounts struct {
	refs, instr, cycles, l1, l2 uint64
	dirTxns, interventions      uint64
	lockAcquires, lockBackoffs  uint64
	vol, invol                  uint64
	detailedInstr, ffAccesses   uint64
	memlatCI95Rel               []float64
}

func sumStats(runs []runRecord) simCounts {
	var c simCounts
	for _, r := range runs {
		st := r.stats
		if st == nil {
			continue
		}
		for _, p := range st.Procs {
			ct := p.Counters
			c.refs += ct.Loads + ct.Stores
			c.instr += ct.Instructions
			c.cycles += ct.Cycles
			c.l1 += ct.L1DMisses
			c.l2 += ct.L2DMisses
			c.lockAcquires += ct.LockAcquires
			c.lockBackoffs += ct.LockBackoffs
			c.vol += p.Vol
			c.invol += p.Invol
		}
		c.dirTxns += st.Dir.Reads + st.Dir.Writes + st.Dir.Upgrades
		c.interventions += st.Dir.DirtyInterventions + st.Dir.CleanInterventions
		for _, e := range st.Sampling {
			c.detailedInstr += e.DetailedInstr
			c.ffAccesses += e.FFAccesses
			if e.MemLatMean > 0 {
				c.memlatCI95Rel = append(c.memlatCI95Rel, e.MemLatCI95/e.MemLatMean)
			}
		}
	}
	return c
}

func (c simCounts) set(m metrics) {
	m.set("sim.refs", float64(c.refs), "count")
	m.set("sim.instr", float64(c.instr), "count")
	m.set("sim.cycles", float64(c.cycles), "count")
	m.set("cache.l1_misses", float64(c.l1), "count")
	m.set("cache.l2_misses", float64(c.l2), "count")
	m.set("coherence.dir_txns", float64(c.dirTxns), "count")
	m.set("coherence.interventions", float64(c.interventions), "count")
	m.set("lock.acquires", float64(c.lockAcquires), "count")
	m.set("lock.backoffs", float64(c.lockBackoffs), "count")
	m.set("simos.vol_switches", float64(c.vol), "count")
	m.set("simos.invol_switches", float64(c.invol), "count")
	// An exact run simulates every instruction in detail.
	frac := 1.0
	if c.detailedInstr > 0 && c.instr > 0 {
		frac = float64(c.detailedInstr) / float64(c.instr)
	}
	m.set("obs.detailed_instr_frac", frac, "ratio")
	m.set("obs.ff_accesses", float64(c.ffAccesses), "count")
	m.set("obs.memlat_ci95_rel", median(c.memlatCI95Rel), "ratio")
}

// setTraceOverhead reports traced against untraced pass wall time.
func setTraceOverhead(m metrics, untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	m.set("trace.untraced_wall_s", u, "s")
	m.set("trace.traced_wall_s", t, "s")
	m.set("trace.overhead_pct", 100*(t/u-1), "%")
}
