package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"dssmem"
)

// TestBenchEntryJSONShape pins the -json document's per-entry shape: external
// consumers (CI trend scripts, BENCH_*.json diffs) key on these exact names,
// so a rename or reorder must be deliberate.
func TestBenchEntryJSONShape(t *testing.T) {
	e := benchEntry{
		ID:            "fig5",
		WallMS:        1.5,
		SimSecondsMax: 2,
		Runs:          15,
		Restored:      14,
		WarmupMS:      3.25,
		MeasuredMS:    40.5,
		CoreUtil:      0.75,
		RefsPerHostS:  2.5e6,
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"id":"fig5","wall_ms":1.5,"sim_seconds_max":2,"runs":15,"restored":14,"warmup_ms":3.25,"measured_ms":40.5,"core_util":0.75,"refs_per_host_s":2500000,"result":null}`
	if string(b) != want {
		t.Fatalf("benchEntry JSON shape changed:\nwant %s\ngot  %s", want, b)
	}

	doc := benchDoc{Preset: "small", SF: 0.006, MemScale: 64, Go: "go1", TotalWallMS: 12.5, PeakRSSMB: 96.5}
	if b, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	want = `{"preset":"small","sf":0.006,"mem_scale":64,"go":"go1","total_wall_ms":12.5,"peak_rss_mb":96.5}`
	if string(b) != want {
		t.Fatalf("benchDoc JSON shape changed:\nwant %s\ngot  %s", want, b)
	}
}

// TestPeakRSS: where /proc/self/status exists the high-water mark is a
// positive number of MiB; elsewhere it reads 0.
func TestPeakRSS(t *testing.T) {
	got := peakRSSMB()
	if _, err := os.Stat("/proc/self/status"); err != nil {
		if got != 0 {
			t.Fatalf("peakRSSMB() = %v without /proc, want 0", got)
		}
		return
	}
	if got <= 0 || got > 1<<20 {
		t.Fatalf("peakRSSMB() = %v MiB", got)
	}
}

// TestBenchDocSplitAccounting checks that the tally deltas land on the entry:
// a figure run at tiny scale reports its runs and a non-zero time split.
func TestBenchDocSplitAccounting(t *testing.T) {
	var doc benchDoc
	r := &dssmem.FigureResult{ID: "fig5"}
	doc.add(r, 10*time.Millisecond, runSplit{Runs: 3, Restored: 2, WarmupMS: 1.5, MeasuredMS: 8, CoreUtil: coreUtil(int64(15*time.Millisecond), 10*time.Millisecond, 2), RefsPerHostS: 4e6})
	if len(doc.Figures) != 1 {
		t.Fatalf("fig5 not filed under figures: %+v", doc)
	}
	got := doc.Figures[0]
	if got.Runs != 3 || got.Restored != 2 || got.WarmupMS != 1.5 || got.MeasuredMS != 8 || got.CoreUtil != 0.75 || got.RefsPerHostS != 4e6 {
		t.Fatalf("split not recorded: %+v", got)
	}
}
