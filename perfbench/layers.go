package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dssmem/internal/db/engine"
	"dssmem/internal/experiments"
	"dssmem/internal/machine"
	"dssmem/internal/memsys"
	"dssmem/internal/tpch"
	"dssmem/internal/trace"
	"dssmem/internal/workload"
)

// preludeReps is how many times the ledger repeats the prelude; it reports
// the median.
const preludeReps = 3

// ledger measures each simulator layer in isolation by timing calls into its
// public functions, one query at a time at one process, exact:
//
//   - prelude: engine.Open + tpch.Load, the warmup every run pays;
//   - DBMS: tpch.Run over a session whose process only counts references,
//     so no machine, kernel or trace encoding is underneath;
//   - memory model: the query's reference stream, captured with
//     trace.CaptureQuery and decoded up front, driven through
//     trace.MachineMem into a fresh machine;
//   - kernel (derived): a full 1-process workload run's measured-region
//     host time minus the DBMS and memory-model times above.
func ledger(m metrics, preset experiments.Preset, data *tpch.Data, spans *spanLog) error {
	cfg := engine.Config{PoolPages: tpch.PoolPagesFor(data)}
	var preludeMS []float64
	var preludeAllocs uint64
	var shared uint64
	for i := 0; i < preludeReps; i++ {
		_, end := spans.begin("prelude", "engine.Open+tpch.Load", 0, nil)
		m0 := mallocs()
		t0 := time.Now()
		db := engine.Open(cfg)
		tpch.Load(db, data)
		preludeMS = append(preludeMS, ms(time.Since(t0)))
		preludeAllocs = mallocs() - m0
		end()
		shared = db.SharedBytes
	}
	m.set("prelude.ms", median(preludeMS), "ms")
	m.set("prelude.allocs", float64(preludeAllocs), "count")

	machines := []struct {
		name string
		spec machine.Spec
	}{
		{"vclass", machine.VClassSpec(16, preset.MemScale)},
		{"origin", machine.OriginSpec(32, preset.MemScale)},
	}
	memNS := map[string]float64{}
	memRefs := map[string]uint64{}
	for _, q := range tpch.AllQueries {
		db := engine.Open(cfg)
		tpch.Load(db, data)
		p := &countProc{}
		sess := db.NewSession(p, 0)
		_, end := spans.begin("dbms", "tpch.Run "+q.String(), 0, map[string]any{"query": q.String()})
		m0 := mallocs()
		t0 := time.Now()
		answer := tpch.Run(q, sess)
		dbms := ms(time.Since(t0))
		allocs := mallocs() - m0
		end()
		if answer.Digest() != tpch.Ref(q, data).Digest() {
			return fmt.Errorf("%v: wrong answer without a machine", q)
		}
		m.set("dbms.ms."+q.String(), dbms, "ms")
		m.set("dbms.allocs."+q.String(), float64(allocs), "count")
		m.set("dbms.refs."+q.String(), float64(p.refs), "count")

		var buf bytes.Buffer
		var events eventLog
		_, end = spans.begin("trace", "trace.CaptureQuery+Replay "+q.String(), 0, map[string]any{"query": q.String()})
		_, err := trace.CaptureQuery(&buf, data, q)
		if err == nil {
			_, err = trace.Replay(&buf, &events)
		}
		end()
		if err != nil {
			return fmt.Errorf("capturing %v: %w", q, err)
		}

		for _, mc := range machines {
			spec, name := mc.spec, mc.name
			spec.SharedLimit = shared
			_, end := spans.begin("memory", "trace.MachineMem "+name+" "+q.String(), 0,
				map[string]any{"machine": name, "query": q.String()})
			mm := &trace.MachineMem{M: machine.New(spec)}
			t0 := time.Now()
			events.drive(mm)
			mem := ms(time.Since(t0))
			end()
			m.set(fmt.Sprintf("mem.ms.%s.%v", name, q), mem, "ms")
			memNS[name] += mem * 1e6
			memRefs[name] += p.refs

			_, end = spans.begin("kernel", "workload.Run "+name+" "+q.String()+" p1", 0,
				map[string]any{"machine": name, "query": q.String(), "procs": 1})
			run, err := workload.RunContext(context.Background(), workload.Options{
				Spec: spec, Data: data, Query: q, Processes: 1, OSTimeScale: preset.MemScale,
			})
			end()
			if err != nil {
				return fmt.Errorf("1-process run %v on %s: %w", q, name, err)
			}
			m.set(fmt.Sprintf("kernel.residual_ms.%s.%v", name, q), float64(run.MeasuredHostNS)/1e6-dbms-mem, "ms")
		}
	}
	for name, ns := range memNS {
		m.set("mem.ns_per_ref."+name, ns/float64(memRefs[name]), "ns")
	}
	return nil
}

// countProc is a DBMS process with no machine underneath: it counts the
// references a query charges and advances a nominal clock the way the trace
// capture's process does.
type countProc struct{ refs, clock uint64 }

func (p *countProc) Load(memsys.Addr, int)  { p.refs++; p.clock += 2 }
func (p *countProc) Store(memsys.Addr, int) { p.refs++; p.clock += 2 }
func (p *countProc) Work(n uint64)          { p.clock += n }
func (p *countProc) Spin()                  { p.clock += 4 }
func (p *countProc) Backoff()               { p.clock += 100_000 }
func (p *countProc) Now() uint64            { return p.clock }

// eventLog holds a decoded reference stream, so driving a machine with it
// times the memory model without the trace decoder.
type eventLog []traceEvent

type traceEvent struct {
	op   uint8 // 0 load, 1 store, 2 work (n in addr)
	size int32
	addr memsys.Addr
}

func (l *eventLog) Load(a memsys.Addr, size int)  { *l = append(*l, traceEvent{0, int32(size), a}) }
func (l *eventLog) Store(a memsys.Addr, size int) { *l = append(*l, traceEvent{1, int32(size), a}) }
func (l *eventLog) Work(n uint64)                 { *l = append(*l, traceEvent{2, 0, memsys.Addr(n)}) }

func (l eventLog) drive(mem trace.Mem) {
	for _, e := range l {
		switch e.op {
		case 0:
			mem.Load(e.addr, int(e.size))
		case 1:
			mem.Store(e.addr, int(e.size))
		default:
			mem.Work(uint64(e.addr))
		}
	}
}
