package sim

// Parallel deterministic execution: events of one virtual instant are
// partitioned by a stable shard key (the owning daemon or machine
// actor) and events of different shards run concurrently on a worker
// pool, with a barrier at every instant boundary.
//
// Determinism is preserved by a staging discipline.  While a wave
// runs, no shard touches shared engine state: every externally
// visible effect — a new schedule, a timer cancel, a bus send, a
// registry change, a trace emission — is appended to the executing
// shard's staging buffer, stamped with the seq of the event that
// staged it.  The barrier walks the segment's events in seq order and
// applies each event's effects, in staging order, through the
// ordinary serial code paths.  Because the serial engine executes
// same-instant events in seq order and applies each event's effects
// inline, the replay performs the identical sequence of queue pushes,
// seq assignments, fault-model consultations, and trace emissions — so
// the parallel engine's traces, dispositions, and journals are byte
// for byte the serial engine's.
//
// Same-instant events created during a wave (schedules at Now()) form
// the next wave of the same instant, which again matches the serial
// queue: their seqs are larger than every event of the current wave.
//
// Shard keys derive from actor-name structure: "kind:owner:seq"
// belongs to owner's shard, so a shadow shares its schedd's shard and
// a starter its machine's — matching the direct pointer coupling in
// package daemon.  Events with no affinity (experiment toggles, fault
// injections) belong to the exclusive global shard and run alone
// between barriers.

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/errscope/grid/internal/obs"
)

// globalShard is the exclusive shard: its events run alone, with a
// barrier before and after, so arbitrary cross-daemon mutations
// (fault injection, experiment toggles) stay race-free and ordered.
const globalShard int32 = 0

// parallelGrain is the minimum segment size (in events) worth
// dispatching to the worker pool; smaller segments run inline.
const parallelGrain = 32

// maxTime is the largest representable virtual instant.
const maxTime = Time(1<<63 - 1)

// ShardKey derives the shard key from an actor name.  Names follow
// the "kind:owner:seq" convention — "shadow:schedd:17" runs on
// schedd's shard, "starter:c0041:2" on machine c0041's — and a plain
// name is its own shard.
func ShardKey(name string) string {
	i := strings.IndexByte(name, ':')
	if i < 0 {
		return name
	}
	rest := name[i+1:]
	j := strings.IndexByte(rest, ':')
	if j < 0 {
		return name
	}
	return rest[:j]
}

// ShardID interns a shard key to a dense id, allocating one on first
// use.  It must not be called during a wave; wave-time paths use the
// read-only lookup.
func (e *Engine) ShardID(key string) int32 {
	if id, ok := e.shardIDs[key]; ok {
		return id
	}
	id := int32(len(e.shardNames))
	e.shardNames = append(e.shardNames, key)
	e.shardIDs[key] = id
	e.shardRngs = append(e.shardRngs, nil)
	e.ctxs = append(e.ctxs, nil)
	return id
}

// shardIDOf is the read-only intern lookup, safe during a wave.
func (e *Engine) shardIDOf(key string) (int32, bool) {
	id, ok := e.shardIDs[key]
	return id, ok
}

// ShardRand returns the deterministic random stream of the shard,
// derived from the engine seed and the shard's interned key, so
// shards draw independently of one another and of execution
// interleaving.  Shard 0 shares the engine's root source.
func (e *Engine) ShardRand(shard int32) *rand.Rand {
	if shard <= 0 || int(shard) >= len(e.shardRngs) {
		return e.rng
	}
	if e.shardRngs[shard] == nil {
		// A cheap, stable string hash (FNV-1a) folds the key into the
		// seed; interning order does not influence the stream.
		h := uint64(14695981039346656037)
		for i := 0; i < len(e.shardNames[shard]); i++ {
			h ^= uint64(e.shardNames[shard][i])
			h *= 1099511628211
		}
		e.shardRngs[shard] = rand.New(rand.NewSource(e.seed ^ int64(h)))
	}
	return e.shardRngs[shard]
}

// effectKind tags one staged effect.
type effectKind uint8

const (
	fxSchedule effectKind = iota
	fxCancel
	fxSend
	fxEmit
	fxCount
	fxObserve
	fxBusTrace
	fxRegister
	fxUnregister
)

// effect is one staged externally visible action, replayed at the
// barrier when the walk reaches its parent event.
type effect struct {
	parent uint64 // seq of the event that staged it
	kind   effectKind

	ev        *event     // schedule / cancel
	gen       uint64     // cancel: the handle's incarnation
	bus       *Bus       // send / busTrace / register / unregister
	msg       Message    // send / busTrace
	delivered bool       // busTrace
	tr        obs.Tracer // emit / count / observe
	obsEv     *obs.Event // emit; boxed — the 120-byte Event would
	// otherwise dominate the struct, and emits are staged only when
	// tracing is on, so the box costs nothing on the untraced path.
	name  string // count / observe / register / unregister
	delta int64  // count / observe
	actor Actor  // register
}

// shardCtx is one shard's staging state for the current wave.  It is
// touched only by the single worker executing the shard, and by the
// single-threaded barrier.
type shardCtx struct {
	shard   int32
	events  []*event
	effects []effect
	parent  uint64 // seq of the running event, stamped on its effects
	// replayed is the barrier's cursor into effects: every effect
	// before it has been applied.
	replayed int
	// overlay holds this shard's registry changes during the wave; a
	// nil Actor is a tombstone.  Registrations for a name and
	// deliveries to it always run on the same shard (names carry
	// their shard key), so the overlay is consulted only locally.
	overlay map[string]Actor
	// freeDel collects delivery records retired during the wave; the
	// barrier returns them to their bus's single-threaded free list.
	// Without this staging every wave-mode delivery would miss the
	// pool and allocate.
	freeDel   []*delivery
	processed uint64
	active    bool
}

func (c *shardCtx) stage(fx effect) {
	fx.parent = c.parent
	c.effects = append(c.effects, fx)
}

func (c *shardCtx) stageSchedule(ev *event) {
	c.stage(effect{kind: fxSchedule, ev: ev})
}

func (c *shardCtx) stageCancel(ev *event, gen uint64) {
	c.stage(effect{kind: fxCancel, ev: ev, gen: gen})
}

func (c *shardCtx) stageSend(b *Bus, m Message) {
	c.stage(effect{kind: fxSend, bus: b, msg: m})
}

func (c *shardCtx) stageBusTrace(b *Bus, m Message, delivered bool) {
	c.stage(effect{kind: fxBusTrace, bus: b, msg: m, delivered: delivered})
}

func (c *shardCtx) stageEmit(tr obs.Tracer, ev obs.Event) {
	c.stage(effect{kind: fxEmit, tr: tr, obsEv: &ev})
}

func (c *shardCtx) stageCount(tr obs.Tracer, name string, delta int64) {
	c.stage(effect{kind: fxCount, tr: tr, name: name, delta: delta})
}

func (c *shardCtx) stageObserve(tr obs.Tracer, name string, v int64) {
	c.stage(effect{kind: fxObserve, tr: tr, name: name, delta: v})
}

func (c *shardCtx) stageRegister(b *Bus, name string, a Actor) {
	c.stage(effect{kind: fxRegister, bus: b, name: name, actor: a})
	if c.overlay == nil {
		c.overlay = make(map[string]Actor)
	}
	c.overlay[name] = a
}

func (c *shardCtx) stageUnregister(b *Bus, name string) {
	c.stage(effect{kind: fxUnregister, bus: b, name: name})
	if c.overlay == nil {
		c.overlay = make(map[string]Actor)
	}
	c.overlay[name] = nil
}

// ctxFor returns the shard's persistent staging context, allocating
// it on first use.  Barrier-side only.
func (e *Engine) ctxFor(shard int32) *shardCtx {
	c := e.ctxs[shard]
	if c == nil {
		c = &shardCtx{shard: shard}
		e.ctxs[shard] = c
	}
	return c
}

// activeCtx returns the shard's staging context when a wave is
// running and the shard belongs to the current segment; nil
// otherwise, which tells callers to use the serial path.
func (e *Engine) activeCtx(shard int32) *shardCtx {
	if !e.waveActive || shard <= 0 || int(shard) >= len(e.ctxs) {
		return nil
	}
	c := e.ctxs[shard]
	if c == nil || !c.active {
		return nil
	}
	return c
}

// activeCtxByOwner resolves an actor name to its shard's active
// context during a wave.
func (e *Engine) activeCtxByOwner(name string) *shardCtx {
	if !e.waveActive {
		return nil
	}
	id, ok := e.shardIDOf(ShardKey(name))
	if !ok {
		return nil
	}
	return e.activeCtx(id)
}

// afterScoped schedules fn on the shard d from now.  During a wave
// the schedule is staged: the event struct exists immediately (its
// Timer is valid) but its seq is assigned at the barrier, in replay
// order, exactly where the serial engine would have assigned it.
func (e *Engine) afterScoped(shard int32, d Time, fn func()) Timer {
	at := e.now + d
	if ctx := e.activeCtx(shard); ctx != nil {
		if at < e.now {
			panic("sim: scheduling event into the past")
		}
		ev := &event{at: at, fn: fn, index: stagedIndex, shard: shard}
		ctx.stageSchedule(ev)
		return Timer{eng: e, ev: ev, gen: 0}
	}
	return e.atShard(shard, at, fn)
}

// runParallel is the wave-mode driver behind Run and RunUntil.
func (e *Engine) runParallel(deadline Time, clamp bool) {
	e.stopped.Store(false)
	for !e.stopped.Load() {
		next := e.events.peek()
		if next == nil || next.at > deadline {
			break
		}
		e.now = next.at
		e.runInstant(next.at)
	}
	if clamp && !e.stopped.Load() && e.now < deadline {
		e.now = deadline
	}
}

// runInstant executes every event of instant t, wave by wave: each
// wave is the set of events at t currently in the queue, split into
// parallel segments at exclusive (global-shard) events.
func (e *Engine) runInstant(t Time) {
	for !e.stopped.Load() {
		wave := e.waveBuf[:0]
		for next := e.events.peek(); next != nil && next.at == t; next = e.events.peek() {
			wave = append(wave, e.events.pop())
		}
		e.waveBuf = wave[:0]
		if len(wave) == 0 {
			return
		}
		i := 0
		for i < len(wave) {
			if e.stopped.Load() {
				e.pushBack(wave[i:])
				return
			}
			ev := wave[i]
			if ev.shard == globalShard {
				// Exclusive event: plain serial semantics, effects
				// applied inline.
				if ev.skip {
					e.recycle(ev)
				} else {
					fn := ev.fn
					e.recycle(ev)
					e.processed++
					fn()
				}
				i++
				continue
			}
			j := i
			for j < len(wave) && wave[j].shard != globalShard {
				j++
			}
			e.runSegment(wave[i:j])
			i = j
		}
	}
}

// pushBack returns unrun wave events to the queue after a Stop.
// Events already skip-marked were cancelled and are recycled, as the
// serial engine would have removed them from the queue.  The events
// keep their seqs, which may be older than events the wave has since
// queued at the same instant; push then starts a fresh chain instead
// of appending out of order, so the resumed run keeps (at, seq)
// order.
func (e *Engine) pushBack(evs []*event) {
	for _, ev := range evs {
		if ev.skip {
			e.recycle(ev)
			continue
		}
		e.events.push(ev)
	}
}

// SegmentStats reports how many parallel segments have run and how
// many shard executions they contained; shards/segments is the mean
// parallelism available to the worker pool.
func (e *Engine) SegmentStats() (segments, shards uint64) {
	return e.segs, e.segShards
}

// runSegment executes one parallel segment: group by shard, run the
// shards concurrently, then replay staged effects at the barrier.
func (e *Engine) runSegment(evs []*event) {
	segCtxs := e.segCtxBuf[:0]
	for _, ev := range evs {
		c := e.ctxFor(ev.shard)
		if !c.active {
			c.active = true
			segCtxs = append(segCtxs, c)
		}
		c.events = append(c.events, ev)
	}
	e.segCtxBuf = segCtxs[:0]
	e.segs++
	e.segShards += uint64(len(segCtxs))

	e.waveActive = true
	// Grain cutoff: dispatching a segment to the pool costs a few
	// goroutine wakeups, which a handful of events cannot amortize.
	// Small segments run their shards inline — sequentially, on the
	// driver — which changes nothing observable: the staging and replay
	// discipline, not the worker schedule, is what fixes the effect
	// order, so the cutoff is pure overhead control.  It is also why
	// the parallel engine degrades gracefully to near-serial cost on a
	// host with no spare cores.
	if n := min(e.workers, len(segCtxs)); n <= 1 || len(evs) < parallelGrain {
		for _, c := range segCtxs {
			runShard(c)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(n)
		for w := 0; w < n; w++ {
			go func() {
				defer wg.Done()
				for {
					k := next.Add(1) - 1
					if int(k) >= len(segCtxs) {
						return
					}
					runShard(segCtxs[int(k)])
				}
			}()
		}
		wg.Wait()
	}
	e.waveActive = false

	// Barrier: replay the staged effects in the serial engine's order.
	// evs is in seq order, and a shard runs its events in seq order,
	// appending each event's effects as one contiguous run of its
	// buffer; so walking evs and draining each event's run from its
	// shard's buffer is the serial order, with no merge or sort.
	for _, ev := range evs {
		c := e.ctxs[ev.shard]
		for c.replayed < len(c.effects) && c.effects[c.replayed].parent == ev.seq {
			e.applyEffect(&c.effects[c.replayed])
			c.replayed++
		}
	}

	// Bookkeeping, in deterministic segment order.
	for _, c := range segCtxs {
		if c.replayed != len(c.effects) {
			// An effect whose stamp is not its shard's event would be
			// silently dropped by the walk.
			panic("sim: staged effect outside its event's run")
		}
		e.processed += c.processed
		c.processed = 0
		for i, d := range c.freeDel {
			d.bus.freeDeliveries = append(d.bus.freeDeliveries, d)
			c.freeDel[i] = nil
		}
		c.freeDel = c.freeDel[:0]
		for _, ev := range c.events {
			e.recycle(ev)
		}
		c.events = c.events[:0]
		clear(c.effects)
		c.effects = c.effects[:0]
		c.replayed = 0
		for k := range c.overlay {
			delete(c.overlay, k)
		}
		c.active = false
	}
}

// runShard executes one shard's wave events sequentially in seq
// order, staging every externally visible effect.
func runShard(c *shardCtx) {
	for _, ev := range c.events {
		if ev.skip {
			continue
		}
		c.parent = ev.seq
		ev.fn()
		ev.done = true
		c.processed++
	}
}

// applyEffect replays one staged effect at the barrier.
func (e *Engine) applyEffect(fx *effect) {
	switch fx.kind {
	case fxSchedule:
		ev := fx.ev
		ev.seq = e.seq
		e.seq++
		e.events.push(ev)
	case fxCancel:
		ev := fx.ev
		if fx.gen == ev.gen && ev.queued() {
			e.events.remove(ev)
			e.recycle(ev)
		}
	case fxSend:
		fx.bus.sendNow(fx.msg)
	case fxBusTrace:
		if fx.bus.Trace != nil {
			fx.bus.Trace(fx.msg, fx.delivered)
		}
	case fxEmit:
		fx.tr.Emit(*fx.obsEv)
	case fxCount:
		fx.tr.Count(fx.name, fx.delta)
	case fxObserve:
		fx.tr.Observe(fx.name, fx.delta)
	case fxRegister:
		fx.bus.registerNow(fx.name, fx.actor)
	case fxUnregister:
		delete(fx.bus.actors, fx.name)
	}
}

// shardTracer stages a daemon's trace stream during waves so that the
// merged recording reproduces the serial emission order, and passes
// straight through otherwise.
type shardTracer struct {
	e     *Engine
	shard int32
	base  obs.Tracer
}

// ShardTracer binds a tracer to the shard of the named actor.  A nil
// base stays nil, preserving "tracing off" checks in callers.
func (e *Engine) ShardTracer(owner string, base obs.Tracer) obs.Tracer {
	if base == nil {
		return nil
	}
	return &shardTracer{e: e, shard: e.ShardID(ShardKey(owner)), base: base}
}

func (t *shardTracer) Enabled() bool { return t.base.Enabled() }

func (t *shardTracer) Emit(ev obs.Event) {
	if ctx := t.e.activeCtx(t.shard); ctx != nil {
		ctx.stageEmit(t.base, ev)
		return
	}
	t.base.Emit(ev)
}

func (t *shardTracer) Count(name string, delta int64) {
	if ctx := t.e.activeCtx(t.shard); ctx != nil {
		ctx.stageCount(t.base, name, delta)
		return
	}
	t.base.Count(name, delta)
}

func (t *shardTracer) Observe(name string, v int64) {
	if ctx := t.e.activeCtx(t.shard); ctx != nil {
		ctx.stageObserve(t.base, name, v)
		return
	}
	t.base.Observe(name, v)
}
