package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes; the program itself is not instrumented. All
// spans of one pipeline repetition or one request share Trace.
type span struct {
	Trace  int64          `json:"trace"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_us"`
	End    int64          `json:"end_us"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End-s.Start) * time.Microsecond }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	spans  []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace returns a fresh id shared by the spans of one repetition or
// request.
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// begin opens a span under parent (nil for a root span).
func (t *tracer) begin(trace int64, parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{Trace: trace, Name: name, Start: time.Since(t.epoch).Microseconds()}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// record adds a span whose interval was measured elsewhere, such as a
// snapshot's mine as reported by the server.
func (t *tracer) record(trace int64, name string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.nextID++
	t.spans = append(t.spans, &span{
		Trace: trace, ID: t.nextID, Name: name, Attrs: attrs,
		Start: start.Sub(t.epoch).Microseconds(), End: end.Sub(t.epoch).Microseconds(),
	})
	t.mu.Unlock()
}

// finish closes s and attaches attrs (nil-safe).
func (t *tracer) finish(s *span, attrs map[string]any) {
	if t == nil || s == nil {
		return
	}
	end := time.Since(t.epoch).Microseconds()
	t.mu.Lock()
	s.End = end
	s.Attrs = attrs
	t.mu.Unlock()
}

// durations returns the durations of every span called name whose trace is
// in traces (all traces when traces is nil).
func (t *tracer) durations(name string, traces map[int64]bool) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (traces == nil || traces[s.Trace]) {
			out = append(out, s.dur())
		}
	}
	return out
}

// traces returns the ids of the traces with a root span called root.
func (t *tracer) traces(root string) map[int64]bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]bool{}
	for _, s := range t.spans {
		if s.Name == root && s.Parent == 0 {
			out[s.Trace] = true
		}
	}
	return out
}

// coverage returns, for the root span named root in each trace, the share
// of its duration covered by its direct children, and the smallest such
// share over all traces.
func (t *tracer) coverage(root string) (float64, bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	lowest, found := 1.0, false
	for _, s := range t.spans {
		if s.Name != root || s.dur() <= 0 {
			continue
		}
		share := float64(children[s.ID]) / float64(s.dur())
		if !found || share < lowest {
			lowest = share
		}
		found = true
	}
	return lowest, found
}

// writeFile writes the host facts and every span as one JSON document.
func (t *tracer) writeFile(path, workload string, seed int64, host hostFacts) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Host     hostFacts `json:"host"`
		Spans    []*span   `json:"spans"`
	}{workload, seed, host, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
