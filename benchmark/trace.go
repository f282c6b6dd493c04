package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's exported
// functions. Times are host nanoseconds since the log was opened; Parent
// is the ID of the span that was open when this one began, or -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog records spans in memory; nothing is written until the run ends.
// A nil *spanLog is the untraced mode: begin returns a no-op, so call
// sites look the same in both modes.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string) (end func()) {
	if l == nil {
		return func() {}
	}
	id := len(l.spans)
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(l.t0).Nanoseconds()})
	l.open = append(l.open, id)
	return func() {
		l.spans[id].EndNs = time.Since(l.t0).Nanoseconds()
		l.open = l.open[:len(l.open)-1]
	}
}

// durations returns the length in seconds of every span called name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	if l == nil {
		return out
	}
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// selfTime is one layer boundary's share of the traced run.
type selfTime struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	SelfMs float64 `json:"self_ms"`
}

// selfTimes returns, per span name, the call count and the self time: a
// span's duration minus the part its child spans cover.
func (l *spanLog) selfTimes() []selfTime {
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	byName := map[string]*selfTime{}
	for i, s := range l.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Calls++
		st.SelfMs += float64(self[i]) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// write stores the spans and their self-time summary as one JSON file.
func (l *spanLog) write(path, workload string, seed uint64) error {
	doc := struct {
		Workload string     `json:"workload"`
		Seed     uint64     `json:"seed"`
		Self     []selfTime `json:"self_time"`
		Spans    []span     `json:"spans"`
	}{workload, seed, l.selfTimes(), l.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
