package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced call: its name, when it ran, the span that caused
// it (-1 for a root) and its trace, which is the boundary number.
type span struct {
	name       string
	trace      int
	parent     int
	start, end time.Duration // since the recorder's epoch
	// leaf0 and leaf1 read the leaf clock at start and end: the time
	// spent in untraced calls beneath the span is their difference.
	leaf0, leaf1 time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op and no clock is read.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// open is the innermost span begun and not yet ended.
	open int
	// leafClock, when set, returns the cumulative time spent in calls
	// too frequent to record one span each (vnet lookups, millions per
	// run). That time counts as covered by children of whichever span
	// it falls in, like a child span's.
	leafClock func() time.Duration
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), open: -1} }

func (r *recorder) leafNow() time.Duration {
	if r.leafClock == nil {
		return 0
	}
	return r.leafClock()
}

// begin opens a span under the innermost open one and returns its
// index for end.
func (r *recorder) begin(name string, trace int) int {
	if r == nil {
		return -1
	}
	now, leaf := time.Since(r.epoch), r.leafNow()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, trace: trace, parent: r.open, start: now, end: -1, leaf0: leaf})
	r.open = len(r.spans) - 1
	return r.open
}

// end closes span i and makes its parent the innermost open span.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now, leaf := time.Since(r.epoch), r.leafNow()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].end, r.spans[i].leaf1 = now, leaf
	r.open = r.spans[i].parent
}

// add records a span whose times were taken elsewhere (the gaps
// between grouphost progress lines) and returns its index.
func (r *recorder) add(name string, trace, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, trace: trace, parent: parent, start: start.Sub(r.epoch), end: end.Sub(r.epoch)})
	return len(r.spans) - 1
}

// spanTotals is what the report needs of every span name.
type spanTotals struct {
	busy time.Duration // summed durations
	self time.Duration // summed durations minus the time children cover
}

// totals sums spans by name. Self time subtracts the union of a span's
// child spans, so overlapping children count once, and the leaf time
// that fell in the span but in none of its child spans.
func (r *recorder) totals() map[string]spanTotals {
	out := make(map[string]spanTotals)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]timeRange)
	childLeaf := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], timeRange{s.start, s.end})
			childLeaf[s.parent] += s.leaf1 - s.leaf0
		}
	}
	for i, s := range r.spans {
		if s.end < s.start {
			continue // never ended
		}
		t := out[s.name]
		d := s.end - s.start
		t.busy += d
		ownLeaf := s.leaf1 - s.leaf0 - childLeaf[i]
		t.self += d - covered(s.start, s.end, children[i]) - ownLeaf
		out[s.name] = t
	}
	return out
}

// writeJSONL writes every span, one JSON object a line, creating the
// file's directory.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.spans {
		if err := enc.Encode(struct {
			ID      int    `json:"id"`
			Parent  int    `json:"parent"`
			Trace   int    `json:"trace"`
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{i, s.parent, s.trace, s.name, int64(s.start), int64(s.end)}); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
