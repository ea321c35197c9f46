package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer's origin; Parent is the index of the
// enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer records spans around the benchmark's own calls into each
// layer, and the per-call durations of the timed operations. It keeps
// everything in memory until write. Untraced runs pass a nil *tracer,
// on which every method is a no-op that reads no clock.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of unfinished span indices

	// Per-call durations in microseconds.
	sendUS, openUS, nbrUS, routeUS []float64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id (the innermost open one) and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.End - s.Start)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
