// Package sim provides the deterministic discrete-event simulation kernel
// that underpins every architectural model in this repository.
//
// The kernel is intentionally small: a virtual clock, a 4-ary heap of
// timestamped events, and named pseudo-random streams. Determinism is a hard
// requirement — two runs with the same seed must produce bit-identical
// results — so ties between events at the same timestamp are broken by a
// monotonically increasing sequence number, and all randomness is drawn from
// streams derived from the engine seed plus a stream name.
//
// Events come in two forms that share one node type and one fire path.
// Engine.Call schedules a typed event — a Handler, an int kind and two
// operands — and allocates nothing once the node free list is warm; it is
// for hot paths such as the machine model's per-message events. Engine.At
// and Engine.After schedule a closure (an Event), which costs a closure
// allocation whenever the closure captures per-event state; they are for
// cold paths such as control loops, telemetry ticks and fleet dispatch,
// where the clarity of a closure is worth more than the allocation.
package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Time is the simulation clock in picoseconds. int64 picoseconds cover about
// 106 days of simulated time, far beyond any experiment in this repository.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros reports t in microseconds as a float, the unit the paper uses for
// most latency plots.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t in milliseconds as a float.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromMicros converts a duration in microseconds to a Time.
func FromMicros(us float64) Time { return Time(us * float64(Microsecond)) }

// FromSeconds converts a duration in seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Event is a callback scheduled to run at a point in virtual time. Closure
// events are for cold paths (control loops, telemetry ticks, the fleet
// dispatcher); hot paths schedule typed events with Engine.Call.
type Event func()

// Fire makes a closure Event a Handler, so At and After schedule closures
// through the same node and the same fire path as Call.
func (f Event) Fire(int, any, any) { f() }

// Handler receives typed events. Fire runs the event of the given kind with
// the two operands it was scheduled with. A model that schedules millions of
// events implements Handler once and switches on kind, instead of allocating
// a closure per event: pointer operands travel in a and b without
// allocating.
type Handler interface {
	Fire(kind int, a, b any)
}

// scheduled is one event node. Nodes are recycled through the engine's
// free list, so steady-state scheduling allocates nothing.
type scheduled struct {
	h    Handler
	kind int
	a, b any
	// index is the node's heap position; -1 once popped or cancelled.
	index int
	// gen guards recycled nodes: a Handle is only live while its generation
	// matches, so a stale Handle cannot cancel a later event that happens to
	// reuse the same node from the free list.
	gen uint32
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	s   *scheduled
	gen uint32
}

// live reports whether the event is still pending (not fired or cancelled).
func (h Handle) live() bool { return h.s != nil && h.s.index >= 0 && h.s.gen == h.gen }

// slot is one heap position. The ordering key (at, seq) sits inline next to
// the node pointer, so sift comparisons never dereference a node.
type slot struct {
	at  Time
	seq uint64
	s   *scheduled
}

// before orders events by (at, seq). seq is unique per engine, so the order
// is total: any correct priority queue pops the same sequence.
func (x slot) before(y slot) bool {
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). Each node records its
// position in index, so Cancel removes interior nodes in O(log n). Four
// children per position halve the depth of a binary heap and keep a
// sift-down's sibling comparisons on adjacent slots.
type eventHeap []slot

func (h eventHeap) set(i int, x slot) {
	h[i] = x
	x.s.index = i
}

func (h eventHeap) up(i int) {
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h.set(i, h[p])
		i = p
	}
	h.set(i, x)
}

// down sifts h[i] toward the leaves and reports whether it moved.
func (h eventHeap) down(i int) bool {
	x := h[i]
	i0 := i
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(h[best]) {
				best = j
			}
		}
		if !h[best].before(x) {
			break
		}
		h.set(i, h[best])
		i = best
	}
	h.set(i, x)
	return i != i0
}

func (h *eventHeap) push(x slot) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

// remove takes the event at position i out of the heap and returns its node.
func (h *eventHeap) remove(i int) *scheduled {
	old := *h
	n := len(old) - 1
	s := old[i].s
	last := old[n]
	old[n] = slot{}
	rest := old[:n]
	*h = rest
	if i < n {
		rest.set(i, last)
		if !rest.down(i) {
			rest.up(i)
		}
	}
	s.index = -1
	return s
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	free    []*scheduled // recycled event nodes (pop/cancel feed it)
	seed    int64
	streams map[string]*rand.Rand
	fired   uint64
	stopped bool
	// maxPending is the event heap's high-water mark since the last Reset —
	// the obs layer's "sim.heap.peak" instrument. Tracking it is one
	// predictable branch per schedule, cheap enough to stay always-on.
	maxPending int
	// resets counts Reset calls over the engine's lifetime, exposing how
	// deep the engine-reuse pool recycling goes.
	resets uint64
}

// NewEngine returns an engine whose random streams all derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, streams: make(map[string]*rand.Rand)}
}

// NewEngineCap returns an engine with event-heap and free-list storage
// preallocated for roughly capHint concurrently pending events, avoiding
// repeated growth in event-heavy runs.
func NewEngineCap(seed int64, capHint int) *Engine {
	e := NewEngine(seed)
	if capHint > 0 {
		e.events = make(eventHeap, 0, capHint)
		e.free = make([]*scheduled, 0, capHint)
	}
	return e
}

// Reset rewinds the engine to a fresh state under a new seed while keeping
// its allocated storage (event heap, free list, random streams). A reset
// engine behaves exactly like NewEngine(seed): existing streams are re-seeded
// in place, so replicate loops can reuse one engine with bit-identical
// results.
func (e *Engine) Reset(seed int64) {
	for _, x := range e.events {
		e.recycle(x.s)
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.stopped = false
	e.maxPending = 0
	e.resets++
	e.seed = seed
	for name, r := range e.streams {
		r.Seed(seed ^ streamHash(name))
	}
}

// recycle returns a node to the free list, invalidating outstanding handles.
func (e *Engine) recycle(s *scheduled) {
	s.h, s.a, s.b = nil, nil, nil
	s.index = -1
	s.gen++
	e.free = append(e.free, s)
}

// node produces a blank event node, reusing a recycled one when available.
func (e *Engine) node() *scheduled {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return s
	}
	return &scheduled{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (useful for perf
// reporting and as a runaway-simulation guard in tests).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return len(e.events) }

// MaxPending returns the event heap's high-water mark since the last Reset
// (or engine creation) — a capacity-planning and obs-layer statistic.
func (e *Engine) MaxPending() int { return e.maxPending }

// Resets returns how many times this engine has been Reset, i.e. how often
// pool recycling reused its storage.
func (e *Engine) Resets() uint64 { return e.resets }

// Call schedules a typed event at absolute time t: at t the engine runs
// h.Fire(kind, a, b). It is the allocation-free scheduling primitive of hot
// paths. Scheduling in the past panics: it is always a model bug.
func (e *Engine) Call(t Time, h Handler, kind int, a, b any) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	s := e.node()
	s.h, s.kind, s.a, s.b = h, kind, a, b
	e.events.push(slot{at: t, seq: e.seq, s: s})
	e.seq++
	if len(e.events) > e.maxPending {
		e.maxPending = len(e.events)
	}
	return Handle{s: s, gen: s.gen}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug.
func (e *Engine) At(t Time, fn Event) Handle { return e.Call(t, fn, 0, nil, nil) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn Event) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an event that already fired
// (or was already cancelled) is a no-op and returns false.
func (e *Engine) Cancel(h Handle) bool {
	if !h.live() {
		return false
	}
	e.recycle(e.events.remove(h.s.index))
	return true
}

// Stop makes Run / RunUntil return after the currently executing event.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(Time(1<<63 - 1))
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline (if it advanced that far). Events scheduled beyond deadline
// remain pending.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		at := e.events[0].at
		if at > deadline {
			break
		}
		next := e.events.remove(0)
		e.now = at
		e.fired++
		h, kind, a, b := next.h, next.kind, next.a, next.b
		// Recycle before firing: the handler frequently schedules a
		// follow-up event (arrival loops, timer chains), which can then
		// reuse this node immediately instead of allocating.
		e.recycle(next)
		h.Fire(kind, a, b)
	}
	if !e.stopped && e.now < deadline && deadline < Time(1<<62) {
		e.now = deadline
	}
}

// NextEventAt reports the timestamp of the earliest pending event, or false
// when the queue is empty. It is the peek primitive conservative parallel
// simulation needs: a synchronization layer bounds the next barrier by the
// earliest thing any engine could possibly do.
func (e *Engine) NextEventAt() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// Rand returns the named random stream, creating it deterministically from
// the engine seed on first use. Distinct names yield independent streams;
// the same name always yields the same stream.
func (e *Engine) Rand(name string) *rand.Rand {
	if r, ok := e.streams[name]; ok {
		return r
	}
	r := rand.New(rand.NewSource(e.seed ^ streamHash(name)))
	e.streams[name] = r
	return r
}

// streamHash maps a stream name to the seed perturbation used by Rand and
// Reset. Reset re-seeds surviving streams with the same function, so a
// reused engine and a fresh one draw identical sequences.
func streamHash(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// Streams is an engine-independent bundle of named deterministic random
// streams, derived from a seed exactly like Engine.Rand derives them from
// the engine seed. A simulation entity that owns a Streams draws the same
// sequences no matter which engine hosts its events — the property that
// lets a sharded (one-engine-per-server) fleet and a single-engine
// reference execution stay bit-identical.
type Streams struct {
	seed    int64
	streams map[string]*rand.Rand
}

// NewStreams returns a stream bundle whose named streams all derive from
// seed. NewStreams(s).Rand(name) draws the same sequence as
// NewEngine(s).Rand(name).
func NewStreams(seed int64) *Streams {
	return &Streams{seed: seed, streams: make(map[string]*rand.Rand)}
}

// Rand returns the named stream, creating it deterministically from the
// bundle seed on first use — the same (seed, name) derivation as
// Engine.Rand.
func (s *Streams) Rand(name string) *rand.Rand {
	if r, ok := s.streams[name]; ok {
		return r
	}
	r := rand.New(rand.NewSource(s.seed ^ streamHash(name)))
	s.streams[name] = r
	return r
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit bijection, so
// structured inputs (small integers, additive offsets) map to uncorrelated
// outputs.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// DeriveSeed derives an independent child seed from a base seed and an
// index via a splitmix64-style hash. It replaces additive strides
// (base + idx*K), which collide whenever two base seeds differ by a small
// multiple of the stride — e.g. a replicate at base+K reusing child 1's
// stream of the original base. The base is avalanched *before* the index is
// combined, so (base, idx) and (base+K, idx-1) can never land on the same
// stream by construction.
func DeriveSeed(base int64, idx int64) int64 {
	z := mix64(uint64(base)+0x9e3779b97f4a7c15) + uint64(idx)*0x9e3779b97f4a7c15
	return int64(mix64(z))
}
