package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"preexec"
)

// span is one timed interval of the traced run: a repetition ("sweep" or
// "serve"), a grid cell or request inside it, or a pipeline stage inside a
// cell. Times are nanoseconds since the recorder's epoch; Run groups the
// spans of one repetition.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Bench  string `json:"bench,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// AllocBytes and AllocObjects are the heap allocation deltas over the
	// span (stage spans only), read from runtime/metrics.
	AllocBytes   uint64 `json:"alloc_bytes,omitempty"`
	AllocObjects uint64 `json:"alloc_objects,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory. As a preexec.StageObserver it records a
// span per stage execution, parented to the grid cell in progress; grids
// are traced with Workers: 1, so exactly one cell is in progress and the
// heap allocation delta over a stage span is that stage's own.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	next  int
	run   int
	root  int // the open repetition span
	cell  int // the id reserved for the cell in progress
	since int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) id() int { r.next++; return r.next }

// beginRun opens a repetition span and reserves the first cell's id.
func (r *recorder) beginRun(run int, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run = run
	r.root = r.id()
	r.cell = r.id()
	r.since = r.now()
	r.spans = append(r.spans, span{ID: r.root, Run: run, Name: name, Start: r.since})
}

// endRun closes the repetition span opened by beginRun.
func (r *recorder) endRun() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].ID == r.root {
			r.spans[i].End = r.now()
			return
		}
	}
}

// cellDone closes the cell in progress (a Sweep progress event) and
// reserves the next cell's id.
func (r *recorder) cellDone(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.now()
	r.spans = append(r.spans, span{ID: r.cell, Parent: r.root, Run: r.run, Name: "cell", Bench: name, Start: r.since, End: end})
	r.cell = r.id()
	r.since = end
}

// child records a finished span under the open repetition (serve requests).
func (r *recorder) child(name string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: r.id(), Parent: r.root, Run: r.run, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
}

// heapAllocs reads the cumulative heap allocation counters.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// StageStart implements preexec.StageObserver.
func (r *recorder) StageStart(stage, bench string) func() {
	b0, o0 := heapAllocs()
	start := r.now()
	return func() {
		end := r.now()
		b1, o1 := heapAllocs()
		r.mu.Lock()
		defer r.mu.Unlock()
		r.spans = append(r.spans, span{
			ID: r.id(), Parent: r.cell, Run: r.run, Name: stage, Bench: bench,
			Start: start, End: end, AllocBytes: b1 - b0, AllocObjects: o1 - o0,
		})
	}
}

var _ preexec.StageObserver = (*recorder)(nil)

// stageTotals sums one repetition's stage spans per stage name.
type stageTotals struct {
	calls                 int64
	busy                  time.Duration
	allocBytes, allocObjs uint64
}

// totals aggregates the stage spans of run. Stage spans never nest (the
// engine runs one stage at a time per cell), so each span's duration is its
// self time.
func (r *recorder) totals(run int) map[string]stageTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]stageTotals)
	for _, s := range r.spans {
		if s.Run != run || !slices.Contains(stageNames, s.Name) {
			continue
		}
		t := out[s.Name]
		t.calls++
		t.busy += s.dur()
		t.allocBytes += s.AllocBytes
		t.allocObjs += s.AllocObjects
		out[s.Name] = t
	}
	return out
}

// write stores every span as NDJSON in dir/name.
func (r *recorder) write(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
