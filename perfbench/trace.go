package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call.  Spans of one request share req; parent is the
// id of the span that caused this one, or -1.
type span struct {
	id     int64
	parent int64
	req    int64
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
}

// tracer keeps spans in memory, one buffer per goroutine, and writes
// them out when the run ends.  A nil *spanBuf records nothing, so the
// untraced run executes the same code with tracing off.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

type spanBuf struct {
	t     *tracer
	id    int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new buffer owned by one goroutine.  Call it before the
// goroutine starts.
func (t *tracer) buf(capacity int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t, id: int64(len(t.bufs)), spans: make([]span, 0, capacity)}
	t.bufs = append(t.bufs, b)
	return b
}

// begin opens a span and returns its id.
func (b *spanBuf) begin(name string, parent, req int64) int64 {
	if b == nil {
		return -1
	}
	id := b.id<<32 | int64(len(b.spans))
	b.spans = append(b.spans, span{id: id, parent: parent, req: req, name: name, start: int64(time.Since(b.t.epoch))})
	return id
}

// finish closes the span begin returned.
func (b *spanBuf) finish(id int64) {
	if b == nil {
		return
	}
	b.spans[id&0xffffffff].end = int64(time.Since(b.t.epoch))
}

// add records a span whose interval was measured by the caller.
func (b *spanBuf) add(name string, parent, req int64, start, end time.Time) int64 {
	if b == nil {
		return -1
	}
	id := b.id<<32 | int64(len(b.spans))
	b.spans = append(b.spans, span{id: id, parent: parent, req: req, name: name,
		start: int64(start.Sub(b.t.epoch)), end: int64(end.Sub(b.t.epoch))})
	return id
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// durations returns the duration in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.name == name {
				out = append(out, float64(s.end-s.start)/1e9)
			}
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Req    int64  `json:"req"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if err := enc.Encode(rec{s.id, s.parent, s.req, s.name, s.start, s.end}); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanCost measures what recording one span costs, in seconds.
func spanCost() float64 {
	const n = 200_000
	t := newTracer()
	b := t.buf(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		b.finish(b.begin("probe", -1, int64(i)))
	}
	return time.Since(start).Seconds() / n
}
