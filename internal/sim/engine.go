package sim

import "fmt"

// Event is a scheduled callback. Events are engine-owned: once an event has
// fired or been cancelled the Engine recycles the object through a free
// list, so user code never holds an Event directly — it holds an EventRef,
// whose generation stamp distinguishes the referenced scheduling from any
// later reuse of the same object.
type Event struct {
	when  Time
	seq   uint64 // tie-break: FIFO among events at the same instant
	index int    // heap index, -1 when not queued
	gen   uint64 // incremented on recycle; stale EventRefs stop matching
	fn    func()
}

// EventRef is a handle to a scheduled callback, returned by Engine.At and
// Engine.After. The zero EventRef is inert: Cancel ignores it and Cancelled
// reports true. Refs are plain values — copying one is free and allocates
// nothing.
type EventRef struct {
	ev  *Event
	gen uint64
}

// Pending reports whether the referenced event is still queued (neither
// fired nor cancelled).
func (h EventRef) Pending() bool {
	return h.ev != nil && h.gen == h.ev.gen && h.ev.index >= 0
}

// Cancelled reports whether the event has been cancelled or already fired.
func (h EventRef) Cancelled() bool { return !h.Pending() }

// When reports the virtual time at which the event will fire. It is only
// meaningful while the event is pending.
func (h EventRef) When() Time { return h.ev.when }

// timerLane is one registered periodic-timer slot (see Engine.NewLane).
type timerLane struct {
	when Time // Infinity while disarmed
	fn   func()
	pos  int // index in laneHeap, -1 while disarmed
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; the simulation model is single-threaded by design so that
// runs are exactly reproducible. Concurrency lives a level up: independent
// replications each own an Engine (see internal/experiments.RunManyOpt).
//
// The event queue is an inlined binary heap ordered by (when, seq), and
// fired or cancelled events are recycled through a per-engine free list, so
// steady-state scheduling (After/Step cycles) does not allocate.
//
// Alongside the heap the engine carries a small set of timer lanes: one
// re-armable timer slot per registered lane, held outside the heap and
// outside the main sequence space. Lanes model periodic hardware timers
// (the kernel's per-CPU tick): arming one is a single field write, and
// because lane firings consume no sequence numbers, eliding or re-arming
// them never perturbs the FIFO ordering of ordinary events — the property
// the fast-forward mode's trace-equivalence proof rests on.
type Engine struct {
	now   Time
	queue []*Event
	free  []*Event
	lanes []timerLane
	// laneHeap indexes the armed lanes ordered by (when, id), so finding
	// the next lane firing is O(1) regardless of how many lanes (CPUs)
	// exist — the linear scan it replaces dominated wide-node runs.
	laneHeap []int
	seq      uint64
	stopped  bool
	// NaiveLanes restores the O(#lanes) linear scan for the next armed
	// lane: the reference implementation TestLaneHeapMatchesNaiveScan
	// compares the heap against. It must be set before any lane is armed
	// and never changed afterwards.
	NaiveLanes bool
	// Dispatched counts heap events that have fired, for diagnostics and
	// tests. Lane firings are counted separately in LaneFires.
	Dispatched uint64
	// LaneFires counts timer-lane firings.
	LaneFires uint64
	// Observer, if non-nil, is invoked at every heap-event dispatch after
	// the clock advances and before the callback runs. The schedcheck
	// harness hashes the (when, seq) stream through it to fingerprint a
	// run. Timer-lane firings are not observed: they are exactly the
	// events the fast-forward mode elides, so keeping them out of the
	// fingerprint makes the two modes directly comparable. Observers must
	// not schedule, cancel, or otherwise touch the engine.
	Observer func(at Time, seq uint64)
	// BeforeEvent, if non-nil, runs immediately before each heap-event
	// dispatch in Run, with the event's time (the clock has not advanced
	// yet). Unlike Observer it may mutate the engine — shift or cancel
	// pending events, arm lanes — as long as every mutation targets times
	// >= at; Run re-evaluates what fires next afterwards. The kernel's
	// fast-forward mode uses it to settle elided-tick accounting before
	// any event can observe stale per-CPU state.
	BeforeEvent func(at Time)
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// alloc takes an Event from the free list, or makes a new one.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return new(Event)
}

// recycle returns a no-longer-queued event to the free list. Bumping the
// generation invalidates every outstanding EventRef to this scheduling.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil // release the closure for GC
	e.free = append(e.free, ev)
}

// At schedules fn to run at time t. Scheduling in the past panics: that is
// always a model bug, and silently reordering events would destroy
// determinism.
func (e *Engine) At(t Time, fn func()) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.when = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.push(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) EventRef {
	return e.At(e.now.Add(d), fn)
}

// Cancel removes the referenced event from the queue. Cancelling an event
// that already fired or was already cancelled is a no-op (the generation
// stamp no longer matches), so callers need not track firing.
func (e *Engine) Cancel(h EventRef) {
	if !h.Pending() {
		return
	}
	e.remove(h.ev.index)
	e.recycle(h.ev)
}

// Reschedule moves a pending event to a new absolute time, preserving FIFO
// order relative to newly created events (it receives a fresh sequence
// number). If the event has fired or been cancelled, Reschedule panics.
func (e *Engine) Reschedule(h EventRef, t Time) {
	if !h.Pending() {
		panic("sim: rescheduling a fired or cancelled event")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event to %v before now %v", t, e.now))
	}
	ev := h.ev
	e.remove(ev.index)
	ev.when = t
	ev.seq = e.seq
	e.seq++
	e.push(ev)
}

// Shift moves a pending event to a new time while preserving its sequence
// number, unlike Reschedule (which re-sequences behind newly created
// events). Shifting models a cost displacing an already-scheduled outcome —
// the tick stealing time from a projected completion — where the event's
// identity, and hence its FIFO rank among same-instant peers, must not
// change. Because no sequence number is consumed, shifting an event one
// time or many times to the same final instant leaves the engine in an
// identical state, which is what lets fast-forward batch per-tick cost
// theft into a single shift. Shifting a fired or cancelled event panics.
func (e *Engine) Shift(h EventRef, t Time) {
	if !h.Pending() {
		panic("sim: shifting a fired or cancelled event")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: shifting event to %v before now %v", t, e.now))
	}
	ev := h.ev
	e.remove(ev.index)
	ev.when = t
	e.push(ev)
}

// NewLane registers a timer lane firing fn and returns its id. Lanes start
// disarmed. Lane ids are dense and stable for the engine's lifetime.
func (e *Engine) NewLane(fn func()) int {
	e.lanes = append(e.lanes, timerLane{when: Infinity, fn: fn, pos: -1})
	return len(e.lanes) - 1
}

// ArmLane sets the lane's next firing time. Arming an armed lane simply
// moves it; arming in the past panics. The lane disarms itself when it
// fires; the callback re-arms it for periodic behaviour.
func (e *Engine) ArmLane(id int, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: arming lane %d at %v before now %v", id, t, e.now))
	}
	l := &e.lanes[id]
	l.when = t
	if e.NaiveLanes {
		return
	}
	if l.pos >= 0 {
		if !e.laneDown(l.pos) {
			e.laneUp(l.pos)
		}
		return
	}
	l.pos = len(e.laneHeap)
	e.laneHeap = append(e.laneHeap, id)
	e.laneUp(l.pos)
}

// DisarmLane stops the lane from firing until re-armed.
func (e *Engine) DisarmLane(id int) {
	l := &e.lanes[id]
	l.when = Infinity
	if e.NaiveLanes || l.pos < 0 {
		return
	}
	e.laneRemove(l.pos)
}

// LaneWhen reports the lane's next firing time, Infinity if disarmed.
func (e *Engine) LaneWhen(id int) Time { return e.lanes[id].when }

// nextLane returns the earliest armed lane and its time. Ties between lanes
// break to the lowest id (part of the determinism contract); the heap
// comparator orders by (when, id), so its root is exactly what the linear
// scan would have found.
func (e *Engine) nextLane() (id int, when Time) {
	if e.NaiveLanes {
		id, when = -1, Infinity
		for i := range e.lanes {
			if e.lanes[i].when < when {
				id, when = i, e.lanes[i].when
			}
		}
		return id, when
	}
	if len(e.laneHeap) == 0 {
		return -1, Infinity
	}
	id = e.laneHeap[0]
	return id, e.lanes[id].when
}

// laneLess orders armed lanes by (when, id).
func (e *Engine) laneLess(i, j int) bool {
	a, b := e.laneHeap[i], e.laneHeap[j]
	if e.lanes[a].when != e.lanes[b].when {
		return e.lanes[a].when < e.lanes[b].when
	}
	return a < b
}

func (e *Engine) laneSwap(i, j int) {
	h := e.laneHeap
	h[i], h[j] = h[j], h[i]
	e.lanes[h[i]].pos = i
	e.lanes[h[j]].pos = j
}

// laneRemove deletes the lane at heap index i and marks it disarmed.
func (e *Engine) laneRemove(i int) {
	h := e.laneHeap
	n := len(h) - 1
	id := h[i]
	if i != n {
		e.laneSwap(i, n)
	}
	e.laneHeap = h[:n]
	if i != n {
		if !e.laneDown(i) {
			e.laneUp(i)
		}
	}
	e.lanes[id].pos = -1
}

// laneUp sifts the heap entry at index i toward the root.
func (e *Engine) laneUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.laneLess(i, parent) {
			break
		}
		e.laneSwap(i, parent)
		i = parent
	}
}

// laneDown sifts the heap entry at index i toward the leaves; it reports
// whether the entry moved.
func (e *Engine) laneDown(i int) bool {
	n := len(e.laneHeap)
	start := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && e.laneLess(right, left) {
			least = right
		}
		if !e.laneLess(least, i) {
			break
		}
		e.laneSwap(i, least)
		i = least
	}
	return i != start
}

// Stop makes the current Run call return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the last Run call exited because of Stop rather
// than by draining the queue or reaching its limit.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending reports the number of queued heap events (armed lanes excluded).
func (e *Engine) Pending() int { return len(e.queue) }

// Step dispatches the single earliest heap event, ignoring lanes and the
// BeforeEvent hook. It reports false if the queue is empty. It exists for
// microbenchmarks and engine tests; simulations that use lanes must be
// driven through Run.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.popMin()
	if ev.when < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = ev.when
	e.Dispatched++
	if e.Observer != nil {
		e.Observer(ev.when, ev.seq)
	}
	fn := ev.fn
	// Recycle before dispatch: the common pattern of a callback scheduling
	// its successor then reuses this very object, so steady-state churn
	// touches no new memory. Outstanding refs are invalidated by the
	// generation bump, exactly as if the event had merely fired.
	e.recycle(ev)
	fn()
	return true
}

// Run dispatches heap events and lane firings in time order until the queue
// drains (with every lane disarmed), Stop is called, or the next dispatch
// lies beyond limit. At equal times lanes fire before heap events (and
// lower lane ids before higher): a timer interrupt pre-empts whatever else
// was due at the same instant. It returns the virtual time at exit. Pass
// Infinity to run to completion.
func (e *Engine) Run(limit Time) Time {
	e.stopped = false
	for !e.stopped {
		li, lt := e.nextLane()
		ht := Infinity
		if len(e.queue) > 0 {
			ht = e.queue[0].when
		}
		if lt == Infinity && ht == Infinity {
			break
		}
		if lt > limit && ht > limit {
			// Advance the clock to the limit so callers observe a
			// consistent "simulated until" time.
			e.now = limit
			break
		}
		if lt <= ht {
			e.now = lt
			e.DisarmLane(li)
			e.LaneFires++
			e.lanes[li].fn()
			continue
		}
		if e.BeforeEvent != nil {
			e.BeforeEvent(ht)
			if e.stopped {
				break
			}
			// The hook may have shifted the front event later or armed a
			// lane: if what fires next changed, re-evaluate; otherwise
			// fall through and dispatch (the hook is idempotent at a
			// given instant, so it is not re-run).
			_, lt2 := e.nextLane()
			ht2 := Infinity
			if len(e.queue) > 0 {
				ht2 = e.queue[0].when
			}
			if lt2 <= ht2 || ht2 != ht {
				continue
			}
		}
		e.Step()
	}
	return e.now
}

// less orders the heap by (when, seq): earliest first, FIFO among equals.
func (e *Engine) less(i, j int) bool {
	a, b := e.queue[i], e.queue[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	q := e.queue
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

// push appends ev and restores the heap property.
func (e *Engine) push(ev *Event) {
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() *Event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	e.swap(0, n)
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.down(0)
	}
	ev.index = -1
	return ev
}

// remove deletes the event at heap index i.
func (e *Engine) remove(i int) {
	q := e.queue
	n := len(q) - 1
	ev := q[i]
	if i != n {
		e.swap(i, n)
	}
	q[n] = nil
	e.queue = q[:n]
	if i != n {
		if !e.down(i) {
			e.up(i)
		}
	}
	ev.index = -1
}

// up sifts the event at index i toward the root.
func (e *Engine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

// down sifts the event at index i toward the leaves; it reports whether the
// event moved.
func (e *Engine) down(i int) bool {
	n := len(e.queue)
	start := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && e.less(right, left) {
			least = right
		}
		if !e.less(least, i) {
			break
		}
		e.swap(i, least)
		i = least
	}
	return i != start
}
