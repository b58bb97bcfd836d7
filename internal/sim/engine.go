// Package sim provides a deterministic discrete-event simulation
// engine: a virtual clock, an event queue with stable ordering, a
// seeded random source, and a message bus with a configurable latency
// and loss model.
//
// The Condor kernel daemons of this repository are actors driven by
// this engine, which makes every pool experiment reproducible: the
// same seed yields the identical event trace.  Determinism is itself
// a fault-tolerance tool — Section 5 of the paper observes that the
// significance of an error may depend on time, and only a controlled
// clock lets tests assert those time-dependent behaviours exactly.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Time is a virtual instant, measured in nanoseconds from the start
// of the simulation.
type Time int64

// String renders the time as a duration from simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two times.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// event is one scheduled callback.  Events are pooled on a free list:
// once fired or cancelled, the struct is recycled for a later
// schedule, so a steady-state simulation allocates no event memory.
// gen distinguishes incarnations so a stale Timer cannot cancel the
// recycled event.
type event struct {
	at    Time
	seq   uint64 // insertion order; breaks ties deterministically
	fn    func()
	index int    // head-heap index; chainedIndex queued behind a head, -1 removed/popped, stagedIndex pending barrier insert
	gen   uint64 // incarnation counter for Timer validity
	// next and prev link the event into its instant chain (see
	// eventQueue): a circular list in seq order whose first element is
	// the chain head.  Both are nil while the event is not queued.
	next, prev *event

	// shard is the affinity key of the callback: events of different
	// shards may execute concurrently within one virtual instant.
	// Shard globalShard (0) is exclusive — it runs alone, with a
	// barrier on either side.
	shard int32
	// skip marks a same-instant event cancelled after it was popped
	// into the current wave; done marks it executed.  Both are
	// meaningful only inside one wave and reset on recycle.
	skip bool
	done bool
	// cancelStaged marks a cancel already staged against the event in
	// the current wave, so a second Cancel reports false like the
	// serial engine's double cancel.
	cancelStaged bool
}

// stagedIndex marks an event created during a parallel wave and not
// yet inserted into the queue; the barrier assigns its seq and inserts
// it in deterministic order.
const stagedIndex = -2

// chainedIndex marks a queued event that is not a chain head: it sits
// in its head's instant chain, not in the head heap.
const chainedIndex = -3

// queued reports whether the event is waiting in the queue, as a chain
// head or behind one.
func (ev *event) queued() bool { return ev.index >= 0 || ev.index == chainedIndex }

// eventQueue is the engine's pending-event set, ordered by (at, seq).
// Most events of a wave share one instant, so the queue is
// instant-chained: a 4-ary min-heap holds only chain heads, and every
// later event of the same instant is appended in O(1) to the head's
// circular chain.  A push finds its head through a small direct-mapped
// cache of recently pushed heads; on a miss — or when the cached
// chain's tail has a larger seq, as when a stopped wave pushes its
// unrun events back — the event simply starts a chain of its own.
//
// Any split of an instant into seq-ordered chains pops in exactly
// (at, seq) order: every chain is sorted, the heap orders heads by
// (at, seq), and popping the least head is a k-way merge of the
// chains.  So the cache decides only how many chains an instant gets,
// never which event runs next, and no trace depends on it.  Nothing is
// allocated per instant: the chain links live in the pooled events.
type eventQueue struct {
	heads eventHeap
	// n counts every queued event, heads and chained alike.
	n     int
	cache [headCacheSize]headRef
}

// headRef is one head-cache slot.  It keeps the instant beside the
// pointer so a miss — the common case when instants are sparse — is
// decided without touching the cached event's memory.  The pointer may
// be stale (popped, recycled, re-queued); push revalidates it.
type headRef struct {
	at Time
	ev *event
}

// headCacheSize is the number of instants whose chain heads a push can
// find without a heap search.  A wave spreads its events over a few
// instants — now plus the bus latency and a handful of timer periods.
const headCacheSize = 16

// headSlot returns the cache slot of instant at (Fibonacci hashing, so
// nearby instants spread over the slots).
func (q *eventQueue) headSlot(at Time) *headRef {
	return &q.cache[(uint64(at)*0x9E3779B97F4A7C15)>>60]
}

// len returns the number of queued events.
func (q *eventQueue) len() int { return q.n }

// peek returns the earliest queued event, or nil.
func (q *eventQueue) peek() *event {
	if len(q.heads) == 0 {
		return nil
	}
	return q.heads[0]
}

// push queues ev, whose seq is already assigned.
func (q *eventQueue) push(ev *event) {
	q.n++
	slot := q.headSlot(ev.at)
	if h := slot.ev; slot.at == ev.at && h != nil && h.index >= 0 && h.at == ev.at && h.prev.seq < ev.seq {
		t := h.prev
		ev.prev, ev.next = t, h
		t.next, h.prev = ev, ev
		ev.index = chainedIndex
		return
	}
	ev.next, ev.prev = ev, ev
	q.heads.push(ev)
	*slot = headRef{ev.at, ev}
}

// pop removes and returns the earliest queued event.
func (q *eventQueue) pop() *event {
	h := q.heads[0]
	q.n--
	if h.next != h {
		q.promote(h)
	} else {
		q.heads.popMin()
	}
	h.index = -1
	h.next, h.prev = nil, nil
	return h
}

// remove deletes a queued event: a chained event unlinks in O(1), a
// head hands its heap slot to its successor, and only a lone head
// leaves the heap.
func (q *eventQueue) remove(ev *event) {
	q.n--
	switch {
	case ev.index == chainedIndex:
		ev.prev.next, ev.next.prev = ev.next, ev.prev
	case ev.next != ev:
		q.promote(ev)
	default:
		q.heads.remove(ev.index)
	}
	ev.index = -1
	ev.next, ev.prev = nil, nil
}

// promote unlinks chain head h and seats its successor in h's heap
// slot.  The successor's key is larger than h's (same instant, later
// seq), so it can only sift down.
func (q *eventQueue) promote(h *event) {
	s, t := h.next, h.prev
	s.prev, t.next = t, s
	i := h.index
	s.index = i
	q.heads[i] = s
	q.heads.down(i, len(q.heads))
	if slot := q.headSlot(h.at); slot.ev == h {
		slot.ev = s
	}
}

// eventHeap is the 4-ary min-heap of chain heads, ordered by (at,
// seq).  It is monomorphic — no container/heap interface dispatch —
// because Step and At dominate the engine's CPU profile.  The arity
// and the internal layout are free to differ from container/heap's
// binary heap without affecting any trace: (at, seq) keys are unique,
// so the sequence of popped minimums is the same for every valid heap.
type eventHeap []*event

// heapArity is the node width: wider nodes mean fewer levels, so pops
// touch fewer cache lines on the large queues a big pool builds.
const heapArity = 4

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h eventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / heapArity
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts i toward the leaves within h[:n] and reports whether it
// moved.
func (h eventHeap) down(i, n int) bool {
	i0 := i
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			break
		}
		h.swap(i, min)
		i = min
	}
	return i > i0
}

func (h *eventHeap) push(e *event) {
	q := append(*h, e)
	e.index = len(q) - 1
	q.up(e.index)
	*h = q
}

// popMin removes and returns the earliest event.  The root's
// replacement is the last leaf, which almost always belongs near the
// bottom again, so the hole left at the root first sinks along the
// least children to a leaf — skipping the compare against the
// replacement at every level — and the replacement then sifts up from
// there, usually not at all (Floyd's bottom-up deletion).
func (h *eventHeap) popMin() *event {
	q := *h
	e := q[0]
	n := len(q) - 1
	x := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n > 0 {
		i := 0
		for {
			first := heapArity*i + 1
			if first >= n {
				break
			}
			m := first
			last := min(first+heapArity, n)
			for c := first + 1; c < last; c++ {
				if q.less(c, m) {
					m = c
				}
			}
			q[i] = q[m]
			q[i].index = i
			i = m
		}
		q[i] = x
		x.index = i
		q.up(i)
	}
	e.index = -1
	return e
}

// remove deletes the event at heap index i and returns it.
func (h *eventHeap) remove(i int) *event {
	q := *h
	n := len(q) - 1
	if i != n {
		q.swap(i, n)
		if !q.down(i, n) {
			q.up(i)
		}
	}
	e := q[n]
	q[n] = nil
	e.index = -1
	*h = q[:n]
	return e
}

// Engine is a discrete-event simulator.  It is not safe for
// concurrent use: a simulation is a single logical thread of control,
// and all concurrency in the simulated system is expressed as
// interleaved events.
type Engine struct {
	now    Time
	events eventQueue
	seq    uint64
	rng    *rand.Rand
	seed   int64
	// stopped is atomic because Stop may be called from a worker
	// goroutine during a parallel instant.
	stopped atomic.Bool
	// free is the event free list; fired and cancelled events are
	// recycled here instead of returning to the garbage collector.
	// Its length is capped at maxFreeEvents so a scheduling burst
	// cannot pin event memory for the rest of the run.
	free []*event
	// processed counts executed events, for tests and metrics.
	processed uint64

	// workers is the concurrency of one virtual instant; <= 1 keeps
	// the engine strictly serial.
	workers int
	// shardNames interns shard keys to dense ids; index 0 is the
	// exclusive global shard.
	shardNames []string
	shardIDs   map[string]int32
	shardRngs  []*rand.Rand
	// wave state (see parallel.go).
	waveActive bool
	ctxs       []*shardCtx
	waveBuf    []*event
	segCtxBuf  []*shardCtx
	// segs / segShards count parallel segments and the shard
	// executions they contained, for parallelism diagnostics.
	segs      uint64
	segShards uint64
}

// maxFreeEvents caps the event free list.  Beyond the cap, recycled
// events return to the garbage collector: the pool exists to make the
// steady state allocation-free, not to hold the high-water mark of a
// burst forever.  The cap accommodates a pool-scale fleet — one
// in-flight timer per simulated machine — at 64 bytes per struct
// (4 MiB when full; TestEventStructSize pins the size).
const maxFreeEvents = 65536

// New creates an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	e := &Engine{
		rng:        rand.New(rand.NewSource(seed)),
		seed:       seed,
		shardNames: []string{""},
		shardIDs:   map[string]int32{"": globalShard},
		shardRngs:  []*rand.Rand{nil},
		ctxs:       []*shardCtx{nil},
	}
	return e
}

// SetWorkers sets the number of workers that may execute same-instant
// events of different shards concurrently.  Values <= 1 keep the
// engine strictly serial; the default is serial.  Call before Run —
// switching modes between instants is safe, switching inside one is
// not.
func (e *Engine) SetWorkers(n int) { e.workers = n }

// Workers reports the configured instant concurrency (0 or 1 means
// serial).
func (e *Engine) Workers() int { return e.workers }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return e.events.len() }

// Timer is a handle to a scheduled event; Cancel prevents a pending
// event from firing.  The handle carries the event's incarnation so
// that it expires the moment its event fires or is cancelled —
// pooled event structs are reused for later schedules, and a stale
// handle must never touch its successor.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel removes the event if it has not yet fired.  It reports
// whether the event was still pending.  Cancel must not be called
// from inside a parallel instant — daemon code cancels through its
// scoped runtime, which routes to cancelFrom with the caller's shard.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.gen != t.ev.gen || !t.ev.queued() {
		return false
	}
	t.eng.events.remove(t.ev)
	t.eng.recycle(t.ev)
	return true
}

// cancelFrom is Cancel as issued by an event running on the given
// shard, safe during a parallel instant.  Outside a wave it is
// exactly Cancel.  Inside a wave:
//
//   - a future event still in the queue is cancel-staged; the barrier
//     removes it in deterministic order (queue state is frozen during
//     the wave);
//   - an event scheduled earlier in this wave and not yet inserted is
//     cancel-staged the same way — the barrier still consumes its seq
//     before removing it, exactly as the serial engine would;
//   - a same-instant event already popped into the wave succeeds only
//     from its own shard and only before it runs (a skip mark); from
//     any other shard the cancel deterministically reports false,
//     whether or not the target has run — cross-shard cancellation of
//     a same-instant event is inherently racy and this engine refuses
//     to let the race decide.
func (t *Timer) cancelFrom(shard int32) bool {
	if t == nil || t.ev == nil || t.gen != t.ev.gen {
		return false
	}
	e := t.eng
	if !e.waveActive {
		return t.Cancel()
	}
	ev := t.ev
	switch {
	case ev.queued(), ev.index == stagedIndex:
		if ev.cancelStaged {
			return false
		}
		ctx := e.activeCtx(shard)
		if ctx == nil {
			return false
		}
		ev.cancelStaged = true
		ctx.stageCancel(ev, t.gen)
		return true
	default: // popped into the current wave
		if ev.shard != shard || ev.done || ev.skip {
			return false
		}
		ev.skip = true
		return true
	}
}

// recycle returns a removed event to the free list under a new
// incarnation.  The free list is capped: a burst's overflow goes back
// to the garbage collector.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.skip = false
	ev.done = false
	ev.cancelStaged = false
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// At schedules fn to run at virtual time at, returning a cancel
// handle by value — the handle, the event, and the schedule are all
// allocation-free in steady state.  Scheduling into the past panics:
// it would violate causality and silently reorder the trace.
func (e *Engine) At(at Time, fn func()) Timer {
	return e.atShard(globalShard, at, fn)
}

// atShard is At with an explicit shard affinity.  It must not run
// concurrently with a wave (callers inside a wave stage through
// afterScoped instead).
func (e *Engine) atShard(shard int32, at Time, fn func()) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at = at
		ev.seq = e.seq
		ev.fn = fn
	} else {
		ev = &event{at: at, seq: e.seq, fn: fn}
	}
	ev.shard = shard
	e.seq++
	e.events.push(ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now.  Negative d means now.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Every schedules fn to run every period, starting one period from
// now, until the returned Timer chain is cancelled via the returned
// stop function or the engine stops.
func (e *Engine) Every(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	stopped := false
	var current Timer
	// One closure serves every tick: re-arming passes the same func
	// value back to the scheduler, so a long-lived periodic timer
	// allocates nothing per period.
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			current = e.After(period, tick)
		}
	}
	current = e.After(period, tick)
	return func() {
		stopped = true
		current.Cancel()
	}
}

// Step executes the next pending event, advancing the clock to its
// time.  It reports whether an event was executed.  Cancelled events
// are removed from the queue eagerly, so every pop is a live event;
// the struct is recycled before the callback runs, letting callbacks
// that schedule reuse it immediately.
func (e *Engine) Step() bool {
	if e.events.len() == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	fn := ev.fn
	e.recycle(ev)
	e.processed++
	fn()
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	if e.workers > 1 {
		e.runParallel(maxTime, false)
		return
	}
	e.stopped.Store(false)
	for !e.stopped.Load() && e.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then sets the clock
// to the deadline (if it is later than the last event).  A run ended
// by Stop leaves the clock at the last executed event: events before
// the deadline may still be queued, and the clock must not pass them.
func (e *Engine) RunUntil(deadline Time) {
	if e.workers > 1 {
		e.runParallel(deadline, true)
		return
	}
	e.stopped.Store(false)
	for !e.stopped.Load() {
		next := e.events.peek()
		if next == nil || next.at > deadline {
			break
		}
		e.Step()
	}
	if !e.stopped.Load() && e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation d from the current time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Stop halts Run/RunUntil after the current event completes.  During
// a parallel instant the stop takes effect at the next shard barrier:
// the running segment completes, its effects are replayed, and the
// remaining same-instant events return to the queue unrun.
func (e *Engine) Stop() { e.stopped.Store(true) }
