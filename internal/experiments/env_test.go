package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssmem/internal/core"
	"dssmem/internal/perfctr"
	"dssmem/internal/rescache"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// fakeEnv returns an Env whose Runner is a synthetic workload: instant, and
// parameterized by the options so distinct configurations yield distinct
// measurements.
func fakeEnv(runner func(context.Context, workload.Options) (*workload.Stats, error)) *Env {
	e := NewEnvWith(Tiny, sharedEnv.Data)
	e.Runner = runner
	return e
}

func fakeStats(o workload.Options) *workload.Stats {
	cyc := uint64(1000 + 10*o.SpinLimit + o.Processes)
	return &workload.Stats{
		MachineName: o.Spec.Name,
		ClockMHz:    o.Spec.ClockMHz,
		Query:       o.Query,
		Processes:   o.Processes,
		Procs: []workload.ProcStats{{
			Query:        o.Query,
			Counters:     perfctr.Counters{Instructions: 1000, Cycles: cyc},
			ThreadCycles: cyc,
			WallCycles:   cyc + 100,
		}},
	}
}

// TestMeasureOptsKeysOnOptionsNotTag is the regression test for the cache-key
// collision hazard: two ablations passing different workload.Options under
// the SAME tag must not share a measurement, and the same options under
// DIFFERENT tags must.
func TestMeasureOptsKeysOnOptionsNotTag(t *testing.T) {
	var calls atomic.Int64
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		calls.Add(1)
		return fakeStats(o), nil
	})
	spec := e.VClass()

	plain, err := e.MeasureOpts("sametag", tpch.Q21, 8, workload.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	spun, err := e.MeasureOpts("sametag", tpch.Q21, 8, workload.Options{Spec: spec, SpinLimit: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("runs = %d: different options under one tag shared a cache entry", calls.Load())
	}
	if plain == spun {
		t.Fatal("distinct configurations returned the same measurement")
	}

	again, err := e.MeasureOpts("othertag", tpch.Q21, 8, workload.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("runs = %d: identical options under a new tag re-ran the simulation", calls.Load())
	}
	if again != plain {
		t.Fatal("tag leaked into the cache key")
	}
}

// procLog records the process count of every run a fake runner starts.
type procLog struct {
	mu    sync.Mutex
	procs []int
}

func (l *procLog) add(n int) {
	l.mu.Lock()
	l.procs = append(l.procs, n)
	l.mu.Unlock()
}

func TestSweepErrorPropagation(t *testing.T) {
	boom := errors.New("injected mid-sweep failure")
	var log procLog
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		log.add(o.Processes)
		if o.Processes == 6 {
			return nil, boom
		}
		return fakeStats(o), nil
	})
	e.Parallelism = 1
	_, err := e.Sweep("vclass", e.VClass(), tpch.Q6, workload.Options{})
	if err == nil {
		t.Fatal("failing measurement did not fail the sweep")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure in the chain", err)
	}
	// Largest first: 8 succeeds, 6 fails, and nothing starts after that.
	if fmt.Sprint(log.procs) != "[8 6]" {
		t.Fatalf("runs started = %v, want [8 6]: the sweep went on after a failure", log.procs)
	}
}

// TestSweepErrorLowestIndex: when several points fail, the sweep reports the
// one earliest in process-count order, whichever finished first.
func TestSweepErrorLowestIndex(t *testing.T) {
	var both sync.WaitGroup
	both.Add(2)
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		if o.Processes == 8 || o.Processes == 6 {
			// Both failing points are in flight before either reports.
			both.Done()
			both.Wait()
			return nil, fmt.Errorf("fail at %d", o.Processes)
		}
		return fakeStats(o), nil
	})
	e.Parallelism = 2
	_, err := e.Sweep("vclass", e.VClass(), tpch.Q6, workload.Options{})
	if err == nil || !strings.Contains(err.Error(), "/p6: fail at 6") {
		t.Fatalf("err = %v, want the p6 failure (lowest index)", err)
	}
}

// TestFanOutLargestFirst pins the dispatch order: at Parallelism 1 a sweep
// runs 8, 6, 4, 2, 1 processes, and a figure starts every 8-process run
// before any 6-process run.
func TestFanOutLargestFirst(t *testing.T) {
	var log procLog
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		log.add(o.Processes)
		return fakeStats(o), nil
	})
	e.Parallelism = 1
	var points []int
	e.OnPoint = func(idx, procs int, _ rescache.Digest, _ bool) {
		if ProcCounts[idx] != procs {
			t.Errorf("OnPoint idx %d carries procs %d", idx, procs)
		}
		points = append(points, procs)
	}
	if _, err := e.Sweep("vclass", e.VClass(), tpch.Q6, workload.Options{}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(log.procs) != "[8 6 4 2 1]" {
		t.Fatalf("sweep dispatch order = %v, want [8 6 4 2 1]", log.procs)
	}
	if fmt.Sprint(points) != "[8 6 4 2 1]" {
		t.Fatalf("OnPoint calls = %v, want one per point", points)
	}

	log.procs = nil
	e.OnPoint = nil
	r, err := Fig5(e)
	if err != nil {
		t.Fatal(err)
	}
	want := "[8 8 8 6 6 6 4 4 4 2 2 2 1 1 1]"
	if fmt.Sprint(log.procs) != want {
		t.Fatalf("Fig. 5 dispatch order = %v, want %s", log.procs, want)
	}
	for _, s := range r.Series {
		for i, p := range s.Points {
			if p.Processes != ProcCounts[i] {
				t.Fatalf("%s point %d holds %d processes: result left its slot", s.Query, i, p.Processes)
			}
		}
	}
}

// TestFigureIndependentOfParallelism: a figure's series and table are the
// same bytes whether its runs execute one at a time or four at once.
func TestFigureIndependentOfParallelism(t *testing.T) {
	render := func(par int) map[int]string {
		e := NewEnvWith(Tiny, sharedEnv.Data)
		e.Parallelism = par
		out := map[int]string{}
		for _, id := range []int{2, 5} {
			var table bytes.Buffer
			r, err := RunFigure(e, id, &table)
			if err != nil {
				t.Fatal(err)
			}
			series, err := json.Marshal(r.Series)
			if err != nil {
				t.Fatal(err)
			}
			out[id] = table.String() + string(series)
		}
		return out
	}
	serial, parallel := render(1), render(4)
	for _, id := range []int{2, 5} {
		if serial[id] != parallel[id] {
			t.Fatalf("fig%d differs between Parallelism 1 and 4:\n%s\n---\n%s", id, serial[id], parallel[id])
		}
	}
}

func TestSweepBoundedParallelism(t *testing.T) {
	var cur, peak atomic.Int64
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond) // hold the slot so overlap is observable
		return fakeStats(o), nil
	})
	e.Parallelism = 2
	if _, err := e.Sweep("vclass", e.VClass(), tpch.Q6, workload.Options{}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent runs, semaphore bound is 2", p)
	}
}

// TestColdWarmByteIdentical is the determinism contract of the result cache:
// the same digest yields byte-identical Measurement JSON whether the result
// was just simulated (cold), read back from the same store (warm memory), or
// read by a fresh process-equivalent store from disk (warm disk) — and all
// match a direct workload.Run of the canonical options.
func TestColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := sharedEnv.VClass()

	marshal := func(m core.Measurement) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cold := NewEnvWith(Tiny, sharedEnv.Data)
	store1, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold.Results = store1
	m1, hit, err := cold.MeasureCached(spec.Name, tpch.Q6, 1, workload.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold run reported a cache hit")
	}

	warm := NewEnvWith(Tiny, sharedEnv.Data)
	store2, err := rescache.Open(dir) // fresh store over the same disk: a daemon restart
	if err != nil {
		t.Fatal(err)
	}
	warm.Results = store2
	warm.Runner = func(context.Context, workload.Options) (*workload.Stats, error) {
		t.Error("warm path ran a simulation")
		return nil, errors.New("unreachable")
	}
	m2, hit, err := warm.MeasureCached(spec.Name, tpch.Q6, 1, workload.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("disk-persisted result not found after 'restart'")
	}
	if !bytes.Equal(marshal(m1), marshal(m2)) {
		t.Fatalf("cold/warm JSON differ:\ncold %s\nwarm %s", marshal(m1), marshal(m2))
	}

	// And both equal a direct, cache-free workload run.
	direct := cold.CanonicalOptions(tpch.Q6, 1, workload.Options{Spec: spec})
	direct.Data = sharedEnv.Data
	st, err := workload.Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(core.FromStats(st)), marshal(m1)) {
		t.Fatal("cached measurement differs from a direct workload.Run")
	}
}

// TestMeasureCtxCancellation: a cancelled Env context aborts the measurement
// instead of waiting for it.
func TestMeasureCtxCancellation(t *testing.T) {
	started := make(chan struct{})
	e := fakeEnv(func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		close(started)
		<-ctx.Done()
		return nil, fmt.Errorf("aborted: %w", context.Cause(ctx))
	})
	ctx, cancel := context.WithCancel(context.Background())
	e.Ctx = ctx
	var wg sync.WaitGroup
	wg.Add(1)
	var err error
	go func() {
		defer wg.Done()
		_, err = e.Measure(e.VClass(), tpch.Q6, 1)
	}()
	<-started
	cancel()
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
