package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refEvent is one event of the reference scheduler.
type refEvent struct {
	at    Time
	seq   uint64
	id    int
	spawn Time // delay of the follow-up event firing schedules; < 0 none
	live  bool
}

// refSched is the reference the 4-ary heap is checked against: a flat list
// popped by linear scan for the least (at, seq) — obviously correct, and
// independent of any heap.
type refSched struct {
	events     []*refEvent
	seq        uint64
	now        Time
	pending    int
	maxPending int
	fired      uint64
}

func (r *refSched) schedule(at Time, id int, spawn Time) *refEvent {
	ev := &refEvent{at: at, seq: r.seq, id: id, spawn: spawn, live: true}
	r.seq++
	r.events = append(r.events, ev)
	r.pending++
	r.maxPending = max(r.maxPending, r.pending)
	return ev
}

func (r *refSched) cancel(ev *refEvent) bool {
	if !ev.live {
		return false
	}
	ev.live = false
	r.pending--
	return true
}

// runUntil pops events in (at, seq) order up to deadline, scheduling each
// popped event's follow-up exactly when the engine's handler would, and
// returns the fired IDs.
func (r *refSched) runUntil(deadline Time, nextID func() int) []int {
	var out []int
	for {
		var best *refEvent
		for _, ev := range r.events {
			if ev.live && (best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq)) {
				best = ev
			}
		}
		if best == nil || best.at > deadline {
			break
		}
		best.live = false
		r.pending--
		r.fired++
		r.now = best.at
		out = append(out, best.id)
		if best.spawn >= 0 {
			r.schedule(r.now+best.spawn, nextID(), -1)
		}
	}
	if r.now < deadline {
		r.now = deadline
	}
	return out
}

// engineSide schedules the engine half of the property test. Typed events
// carry their ID as the kind; closure events capture it.
type engineSide struct {
	e      *Engine
	fired  []int
	spawns map[int]Time
	ids    int
	// closures alternates the follow-up events between At and Call.
	closures bool
}

func (d *engineSide) nextID() int {
	d.ids++
	return d.ids
}

func (d *engineSide) Fire(kind int, _, _ any) { d.fire(kind) }

func (d *engineSide) fire(id int) {
	d.fired = append(d.fired, id)
	if spawn := d.spawns[id]; spawn >= 0 {
		d.schedule(d.e.Now()+spawn, d.nextID(), -1)
	}
}

func (d *engineSide) schedule(at Time, id int, spawn Time) Handle {
	d.spawns[id] = spawn
	d.closures = !d.closures
	if d.closures {
		return d.e.At(at, func() { d.fire(id) })
	}
	return d.e.Call(at, d, id, nil, nil)
}

// TestHeapMatchesReferenceProperty drives random interleavings of At, Call,
// Cancel and partial runs through the engine and a (at, seq)-sorting
// reference. Timestamps come from a narrow window, so most events tie;
// cancels hit interior nodes and stale handles whose nodes were recycled to
// later events; fired events schedule follow-ups from inside the run. Fire
// order, Pending, MaxPending and Fired must match at every step.
func TestHeapMatchesReferenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		d := &engineSide{e: e, spawns: make(map[int]Time)}
		ref := &refSched{}
		type pair struct {
			h  Handle
			ev *refEvent
		}
		var handles []pair
		refIDs := 0
		refNext := func() int { refIDs++; return refIDs }
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				at := e.Now() + Time(rng.Intn(6))
				spawn := Time(-1)
				if rng.Intn(3) == 0 {
					spawn = Time(rng.Intn(4))
				}
				id := d.nextID()
				if refNext() != id {
					t.Fatal("ID streams diverged")
				}
				handles = append(handles, pair{d.schedule(at, id, spawn), ref.schedule(at, id, spawn)})
			case op < 8:
				if len(handles) == 0 {
					continue
				}
				p := handles[rng.Intn(len(handles))]
				if got, want := e.Cancel(p.h), ref.cancel(p.ev); got != want {
					t.Fatalf("seed %d step %d: Cancel = %v, reference %v", seed, step, got, want)
				}
			default:
				deadline := e.Now() + Time(rng.Intn(5))
				d.fired = d.fired[:0]
				e.RunUntil(deadline)
				want := ref.runUntil(deadline, refNext)
				if len(d.fired) != len(want) {
					t.Fatalf("seed %d step %d: fired %v, reference %v", seed, step, d.fired, want)
				}
				for i := range want {
					if d.fired[i] != want[i] {
						t.Fatalf("seed %d step %d: fired %v, reference %v", seed, step, d.fired, want)
					}
				}
			}
			if e.Pending() != ref.pending || e.MaxPending() != ref.maxPending || e.Fired() != ref.fired {
				t.Fatalf("seed %d step %d: pending/max/fired %d/%d/%d, reference %d/%d/%d", seed, step,
					e.Pending(), e.MaxPending(), e.Fired(), ref.pending, ref.maxPending, ref.fired)
			}
		}
		d.fired = d.fired[:0]
		e.Run()
		want := ref.runUntil(Time(1<<62), refNext)
		if len(d.fired) != len(want) || e.Pending() != 0 || e.Fired() != ref.fired {
			t.Fatalf("seed %d drain: fired %d events (total %d), reference %d (total %d)",
				seed, len(d.fired), e.Fired(), len(want), ref.fired)
		}
		for i := range want {
			if d.fired[i] != want[i] {
				t.Fatalf("seed %d drain: order diverges at %d", seed, i)
			}
		}
	}
}

// heapChurn keeps the engine's heap at a fixed size: every fired event
// schedules one replacement at a pseudo-random later time, and the run
// stops after left events.
type heapChurn struct {
	e      *Engine
	delays []Time
	i      int
	left   int
}

func (c *heapChurn) Fire(int, any, any) {
	c.left--
	if c.left <= 0 {
		c.e.Stop()
	}
	c.e.Call(c.e.Now()+c.delays[c.i%len(c.delays)], c, 0, nil, nil)
	c.i++
}

// BenchmarkEngineHeap measures one pop plus one push at a steady heap size
// — the kernel's per-event cost at realistic pending-event counts (a busy
// 1024-core machine keeps a few thousand events in flight). It reports
// 0 allocs/op once the node free list is warm.
func BenchmarkEngineHeap(b *testing.B) {
	for _, pending := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("pending=%dK", pending>>10), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			e := NewEngineCap(1, pending)
			c := &heapChurn{e: e, delays: make([]Time, 4096)}
			for i := range c.delays {
				c.delays[i] = Time(rng.Intn(100_000) + 1)
			}
			for i := 0; i < pending; i++ {
				e.Call(Time(rng.Intn(100_000)), c, 0, nil, nil)
			}
			c.left = b.N
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}
