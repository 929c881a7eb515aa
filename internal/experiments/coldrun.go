package experiments

import (
	"fmt"

	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// ColdRun contrasts the first of the paper's four trials (cold buffer pool:
// every page touch pays a disk read and a voluntary context switch) with the
// warm steady state the averaged figures reflect. It explains why the paper
// ran each configuration four times before averaging.
func ColdRun(e *Env) (*Result, error) {
	r := &Result{
		ID:      "coldrun",
		Title:   "Cold vs warm buffer pool (V-Class, 1 process)",
		Headers: []string{"query", "variant", "wall s", "thread cyc", "vol switches", "disk reads"},
	}
	spec := e.VClass()
	for _, q := range tpch.AllQueries {
		warm, err := e.MeasureOpts(spec.Name, q, 1, workload.Options{Spec: spec})
		if err != nil {
			return nil, err
		}
		// The cold run goes through the same option canonicalization and
		// runner as every cached measurement — one definition of the warmup
		// prelude (workload's buildDB) serves warm and cold runs, so the
		// variants cannot drift apart. ColdRun
		// itself stays uncached here only because this ablation wants the
		// raw per-process stats, not the reduced measurement.
		coldOpts := e.CanonicalOptions(q, 1, workload.Options{Spec: spec, ColdRun: true})
		coldOpts.Data = e.Data
		coldStats, err := e.runner()(e.ctx(), coldOpts)
		if err != nil {
			return nil, err
		}
		e.Tally.add(coldStats)
		cold := coldStats.Procs[0]
		r.Rows = append(r.Rows,
			[]string{q.String(), "cold (trial 1)",
				fmt.Sprintf("%.4f", float64(cold.WallCycles)/(float64(spec.ClockMHz)*1e6)),
				fm(float64(cold.ThreadCycles)), fmt.Sprint(cold.Vol), fmt.Sprint(coldStats.DiskReads)},
			[]string{q.String(), "warm (steady state)",
				fmt.Sprintf("%.4f", warm.WallSeconds),
				fm(warm.ThreadCycles), fmt.Sprintf("%.0f", warm.VolPerM*warm.Instructions/1e6), "0"},
		)
	}
	r.Notes = append(r.Notes,
		"cold runs are dominated by I/O waits (every page's first touch blocks), inflating wall time and voluntary switches while thread time barely moves — the behaviour the paper's 4-trial averaging washes out")
	return r, nil
}

func init() {
	Ablations["coldrun"] = ColdRun
}
