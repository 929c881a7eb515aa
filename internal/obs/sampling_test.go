package obs

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dssmem/internal/perfctr"
)

// refAccess is Access with the period position recomputed by division on
// every access: the formula the per-quantum cache must reproduce.
func refAccess(c *SamplingController, cpu int, ct *perfctr.Counters, write bool, now uint64) (uint64, bool) {
	s := &c.cpus[cpu]
	idx := (now / c.quantum) % c.period
	measured := idx == 0
	if measured != s.measuring {
		if measured {
			s.winStart = *ct
		} else {
			w := ct.Sub(&s.winStart)
			if w.Instructions > 0 {
				s.windows = append(s.windows, w)
			}
		}
		s.measuring = measured
	}
	if measured || idx == c.period-1 {
		return 0, false
	}
	ct.Instructions++
	if write {
		ct.Stores++
	} else {
		ct.Loads++
	}
	cyc := s.estFP >> 16
	if cyc == 0 {
		cyc = 1
	}
	ct.Cycles += cyc
	s.ffAccesses++
	s.ffCycles += cyc
	return cyc, true
}

// TestAccessMatchesDivisionFormula drives random clock sequences — small
// steps, multi-quantum jumps and steps backwards, on two CPUs, from origins
// that include the top of the clock range — through Access and refAccess.
// Every decision, charge, window and fast-forward total must agree.
func TestAccessMatchesDivisionFormula(t *testing.T) {
	quanta := []uint64{1, 3, 64, 1000, 50_000}
	origins := []uint64{0, 12_345, math.MaxUint64 - 200_000}
	f := func(seed int64, qSel, pSel, oSel uint8) bool {
		quantum := quanta[int(qSel)%len(quanta)]
		period := 2 + int(pSel)%9
		rng := rand.New(rand.NewSource(seed))
		got := NewSamplingController(2, quantum, period)
		want := NewSamplingController(2, quantum, period)
		var gotCt, wantCt [2]perfctr.Counters
		var now [2]uint64
		for i := range now {
			now[i] = origins[int(oSel)%len(origins)]
		}
		for step := 0; step < 3000; step++ {
			cpu := rng.Intn(2)
			switch r := rng.Intn(20); {
			case r < 14: // within or just past the quantum
				now[cpu] += uint64(rng.Int63n(int64(quantum/4 + 2)))
			case r < 18: // multi-quantum jump
				now[cpu] += uint64(rng.Intn(3*period))*quantum + uint64(rng.Int63n(int64(quantum)))
			default: // backwards
				back := uint64(rng.Int63n(int64(2*quantum + 1)))
				if back > now[cpu] {
					back = now[cpu]
				}
				now[cpu] -= back
			}
			write := rng.Intn(3) == 0
			gc, gff := got.Access(cpu, &gotCt[cpu], write, now[cpu])
			wc, wff := refAccess(want, cpu, &wantCt[cpu], write, now[cpu])
			if gc != wc || gff != wff {
				t.Logf("step %d cpu %d now %d: Access = (%d, %v), formula = (%d, %v)", step, cpu, now[cpu], gc, gff, wc, wff)
				return false
			}
			if !gff {
				// A detailed access: the machine model's counter bumps.
				cyc := uint64(1 + rng.Intn(200))
				for _, ct := range []*perfctr.Counters{&gotCt[cpu], &wantCt[cpu]} {
					ct.Instructions++
					ct.Loads++
					ct.Cycles += cyc
					if cyc > 100 {
						ct.L1DMisses++
					}
				}
				got.Detailed(cpu, cyc)
				want.Detailed(cpu, cyc)
			}
		}
		for cpu := range now {
			g, w := &got.cpus[cpu], &want.cpus[cpu]
			if !reflect.DeepEqual(g.windows, w.windows) || g.ffAccesses != w.ffAccesses ||
				g.ffCycles != w.ffCycles || g.measuring != w.measuring || gotCt[cpu] != wantCt[cpu] {
				t.Logf("cpu %d: %d windows, ff %d/%d cycles; formula: %d windows, ff %d/%d cycles",
					cpu, len(g.windows), g.ffAccesses, g.ffCycles, len(w.windows), w.ffAccesses, w.ffCycles)
				return false
			}
			got.Extrapolate(cpu, &gotCt[cpu])
			want.Extrapolate(cpu, &wantCt[cpu])
			if gotCt[cpu] != wantCt[cpu] || got.Estimate(cpu) != want.Estimate(cpu) {
				t.Logf("cpu %d: extrapolated counters differ", cpu)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
