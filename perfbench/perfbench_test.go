package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dssmem/internal/experiments"
)

// declared is the metric list of BENCHMARK.json at the repository root.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// smokeOptions runs a workload at reduced size: the tiny preset, a short
// request stream and two passes.
func smokeOptions(t *testing.T, name string, traced bool) options {
	o := defaultOptions()
	o.workload = name
	o.trace = traced
	o.budget = 0
	o.minPasses = 2
	o.figPreset = experiments.Tiny
	o.requests = 150
	o.spans = filepath.Join(t.TempDir(), "spans.json")
	return o
}

// TestSmoke runs every workload in both modes and checks that each declared
// metric prints with its unit, that every output check passes, and that the
// simulated-statistics digest repeats between the two runs.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for _, wl := range decl.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			var digests []string
			for _, traced := range []bool{false, true} {
				o := smokeOptions(t, wl.Name, traced)
				var out bytes.Buffer
				res, err := run(o, &out)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d\n%s", traced, res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := decl.EndToEnd
				if traced {
					want = decl.PerLayer
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("trace=%v: metric %s not printed", traced, d.Name)
						continue
					}
					if got.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s unit %q, declared %q", traced, d.Name, got.Unit, d.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: printed %d metrics, declared %d", traced, len(res.Metrics), len(want))
				}
				for _, line := range strings.Split(out.String(), "\n") {
					if strings.HasPrefix(line, "sim_digest ") {
						digests = append(digests, line)
					}
				}
				if traced {
					checkSpans(t, o.spans)
				}
			}
			if len(digests) != 2 || digests[0] != digests[1] {
				t.Errorf("simulated-statistics digest did not repeat: %q", digests)
			}
		})
	}
}

// checkSpans checks that the traced run wrote Chrome trace-event JSON with
// complete events.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("spans file: %v", err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("spans file holds no spans")
	}
}

// TestRequestStream checks that every seed introduces the keys in the same
// order, so passes compute the same simulations, and that a seed repeats.
func TestRequestStream(t *testing.T) {
	keys := keySpace()
	for _, seed := range []uint64{1, 7} {
		var order []string
		seen := map[string]bool{}
		for _, r := range requestStream(seed, 500) {
			if !seen[r.key] {
				seen[r.key] = true
				order = append(order, r.key)
			}
		}
		if len(order) != len(keys) {
			t.Fatalf("seed %d: stream covers %d of %d keys", seed, len(order), len(keys))
		}
		for i, k := range keys {
			if order[i] != k.key {
				t.Fatalf("seed %d: key %d first requested is %s, want %s", seed, i, order[i], k.key)
			}
		}
	}
	a, b := requestStream(3, 500), requestStream(3, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different streams")
		}
	}
}
