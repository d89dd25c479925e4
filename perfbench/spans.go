package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the traced run records at a layer
// boundary: a client request, one of its HTTP calls, a server timeline
// phase, or a replay-harness pass.
type span struct {
	name, cat  string
	tid        int
	start, end time.Time
}

// spanRecorder keeps spans in memory; writeChrome exports them once,
// when the run ends.
type spanRecorder struct {
	mu    sync.Mutex
	spans []span
	names map[int]string
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{names: make(map[int]string)} }

func (r *spanRecorder) add(name, cat string, tid int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, cat: cat, tid: tid, start: start, end: end})
	r.mu.Unlock()
}

// nameRow labels a trace row.
func (r *spanRecorder) nameRow(tid int, name string) {
	r.mu.Lock()
	r.names[tid] = name
	r.mu.Unlock()
}

// serverTid is the trace row holding the server phases of client
// tid's requests: the phases overlap the client's HTTP calls, so they
// get a row of their own.
func serverTid(tid int) int { return tid + 100 }

// replayTid is the trace row of the replay harness passes.
const replayTid = 200

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace-event file (opens in
// Perfetto), timestamps in µs from the earliest span.
func (r *spanRecorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	names := make(map[int]string, len(r.names))
	for k, v := range r.names {
		names[k] = v
	}
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var origin time.Time
	if len(spans) > 0 {
		origin = spans[0].start
	}
	evs := make([]chromeEvent, 0, len(spans)+len(names))
	tids := make([]int, 0, len(names))
	for tid := range names {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": names[tid]}})
	}
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:  float64(s.start.Sub(origin)) / 1e3,
			Dur: float64(s.end.Sub(s.start)) / 1e3,
		})
	}
	b, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
