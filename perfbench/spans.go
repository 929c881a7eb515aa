package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	id, parent int
	layer      string // category: the layer the call enters
	name       string
	start, end time.Duration // since the log's origin
	lane       int           // display row; concurrent spans take different lanes
	args       map[string]any
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced passes share the traced code path.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	busy   []bool // lanes in use
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its id and closer.
func (l *spanLog) begin(layer, name string, parent int, args map[string]any) (int, func()) {
	if l == nil {
		return 0, func() {}
	}
	l.mu.Lock()
	lane := 0
	for lane < len(l.busy) && l.busy[lane] {
		lane++
	}
	if lane == len(l.busy) {
		l.busy = append(l.busy, false)
	}
	l.busy[lane] = true
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id: id, parent: parent, layer: layer, name: name,
		start: time.Since(l.origin), lane: lane, args: args})
	l.mu.Unlock()
	return id, func() {
		l.mu.Lock()
		l.spans[id-1].end = time.Since(l.origin)
		l.busy[lane] = false
		l.mu.Unlock()
	}
}

// layerTimes sums, per layer, span time and self time: a span's duration
// minus the part of it that its child spans cover.
func (l *spanLog) layerTimes() (layers []string, total, self map[string]time.Duration, count map[string]int) {
	total, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for _, s := range l.spans {
		if _, ok := count[s.layer]; !ok {
			layers = append(layers, s.layer)
		}
		count[s.layer]++
		d := s.end - s.start
		total[s.layer] += d
		self[s.layer] += d - covered(s, children[s.id])
	}
	sort.Strings(layers)
	return layers, total, self, count
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum, hi time.Duration
	hi = parent.start
	for _, k := range kids {
		lo, end := max(k.start, hi), min(k.end, parent.end)
		if end > lo {
			sum += end - lo
			hi = end
		}
	}
	return sum
}

// writeTable prints the per-layer span table.
func (l *spanLog) writeTable(w io.Writer) {
	layers, total, self, count := l.layerTimes()
	fmt.Fprintf(w, "%-14s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, ly := range layers {
		fmt.Fprintf(w, "%-14s %8d %12.1f %12.1f\n", ly, count[ly], ms(total[ly]), ms(self[ly]))
	}
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench"}}}
	for lane := range l.busy {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
			Args: map[string]any{"name": fmt.Sprintf("lane %d", lane)}})
	}
	for _, s := range l.spans {
		args := map[string]any{"span_id": s.id}
		if s.parent != 0 {
			args["parent_id"] = s.parent
		}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{Name: s.name, Cat: s.layer, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.lane, Args: args})
	}
	b, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
