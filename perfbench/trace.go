package main

import (
	"sync"
	"time"

	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
)

// span is one call into a layer's public function, timed from the
// benchmark's side. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`     // -1 during set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known.
func (t *tracer) add(name string, op, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// durations returns the lengths of every finished span with this name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// opCtx is what an op (or a set-up) needs to record its calls: the tracer,
// the op's id, and the span its calls nest under.
type opCtx struct {
	tr   *tracer
	id   int
	span int
}

// call runs f inside a span named after the public function it calls.
func (c opCtx) call(name string, f func()) {
	s := c.tr.begin(name, c.id, c.span)
	f()
	c.tr.end(s)
}

// cellCache returns the cache to install with sweep.SetCache: the cache
// itself when untraced, a wrapper that records its Lookup and Store calls
// when traced.
func (c opCtx) cellCache(cache *sweepcache.Cache) sweep.CellCache {
	if c.tr == nil {
		return cache
	}
	return &tracedCache{Cache: cache, c: c, open: map[string]time.Time{}}
}

// tracedCache records a span per Lookup and Store, and a "sweep.cell" span
// from a preimage's Lookup to its Store: that cell's host time.
type tracedCache struct {
	*sweepcache.Cache
	c    opCtx
	mu   sync.Mutex
	open map[string]time.Time
}

func (tc *tracedCache) Lookup(preimage []byte) ([]byte, bool) {
	t0 := time.Now()
	b, ok := tc.Cache.Lookup(preimage)
	tc.c.tr.add("sweepcache.Lookup", tc.c.id, tc.c.span, t0, time.Now())
	tc.mu.Lock()
	tc.open[string(preimage)] = t0
	tc.mu.Unlock()
	return b, ok
}

func (tc *tracedCache) Store(preimage, payload []byte) {
	t0 := time.Now()
	tc.Cache.Store(preimage, payload)
	t1 := time.Now()
	tc.c.tr.add("sweepcache.Store", tc.c.id, tc.c.span, t0, t1)
	tc.mu.Lock()
	start, ok := tc.open[string(preimage)]
	delete(tc.open, string(preimage))
	tc.mu.Unlock()
	if ok {
		tc.c.tr.add("sweep.cell", tc.c.id, tc.c.span, start, t1)
	}
}
