package workload

import (
	"testing"

	"dssmem/internal/db/dbtest"
	"dssmem/internal/db/engine"
	"dssmem/internal/machine"
	"dssmem/internal/memsys"
	"dssmem/internal/perfctr"
	"dssmem/internal/tpch"
)

// pageRegions classifies every address a query references and remembers the
// region each page had at its first reference.
type pageRegions struct {
	dbtest.FakeProc
	t       *testing.T
	db      *engine.Database
	regions map[uint64]perfctr.Region
}

func (r *pageRegions) note(a memsys.Addr) {
	reg, pg := r.db.Classify(a), memsys.Page(a)
	first, seen := r.regions[pg]
	if !seen {
		r.regions[pg] = reg
	} else if reg != first {
		r.t.Fatalf("page %#x: address %#x classified %v, page was %v", pg, a, reg, first)
	}
}

func (r *pageRegions) Load(a memsys.Addr, n int)  { r.note(a); r.FakeProc.Load(a, n) }
func (r *pageRegions) Store(a memsys.Addr, n int) { r.note(a); r.FakeProc.Store(a, n) }

// TestPageRegionFixedDuringRun pins the invariant simos's per-page region
// memo relies on: every address of a page classifies alike, and a page's
// region never changes after a query first references it, for every query on
// a warm and a cold pool.
func TestPageRegionFixedDuringRun(t *testing.T) {
	for _, cold := range []bool{false, true} {
		for _, q := range append([]tpch.QueryID{tpch.Q1}, tpch.AllQueries...) {
			o := opts(machine.OriginSpec(2, 256), q, 1)
			o.ColdRun = cold
			db := buildDB(o)
			rec := &pageRegions{t: t, db: db, regions: map[uint64]perfctr.Region{}}
			tpch.Run(q, db.NewSession(rec, 0))
			if len(rec.regions) == 0 {
				t.Fatalf("%v: no references recorded", q)
			}
			for pg, first := range rec.regions {
				if reg := db.Classify(memsys.Addr(pg << memsys.PageShift)); reg != first {
					t.Fatalf("%v cold=%v: page %#x ended the run %v, first referenced as %v", q, cold, pg, reg, first)
				}
			}
		}
	}
}
