package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestEventStructSize pins the pooled event's footprint: the instant
// chain costs exactly its two link pointers over the heap-only layout,
// and the struct stays within one 64-byte allocation class, the figure
// maxFreeEvents' memory bound is stated in.
func TestEventStructSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Errorf("event is %d bytes, want 64", got)
	}
}

// queueProp is one event of the queue property test, with the model's
// view of it.
type queueProp struct {
	at    Time
	seq   uint64 // the seq the engine assigns, mirrored by the model
	shard int32
	tm    Timer
	state int // propLive, propFired or propCancelled
	stop  bool
	// rank is Processed() as seen by the event's own callback, so the
	// global-shard events' positions in the run can be checked even
	// when the other shards execute concurrently.
	rank uint64
	ran  Time
}

const (
	propLive = iota
	propFired
	propCancelled
)

// queueModel drives one engine through a seeded random mix of
// schedules, same-instant fan-out, cancels and stops, tracking which
// events are live.
type queueModel struct {
	t      *testing.T
	e      *Engine
	rng    *rand.Rand
	serial bool
	seq    uint64
	shards []int32
	evs    []*queueProp
	// order is the serial engine's execution order; logs is the
	// per-shard execution order (indexed like shards) of a parallel run.
	order []*queueProp
	logs  [][]*queueProp
}

func (m *queueModel) live() int {
	n := 0
	for _, x := range m.evs {
		if x.state == propLive {
			n++
		}
	}
	return n
}

func (m *queueModel) checkPending(where string) {
	m.t.Helper()
	if got, want := m.e.Pending(), m.live(); got != want {
		m.t.Fatalf("%s: Pending() = %d, live events = %d", where, got, want)
	}
}

// schedule queues one event at instant at on shard index si.  Only the
// test loop and global-shard callbacks schedule, and both run alone, so
// the model's seq counter advances exactly as the engine's does.
func (m *queueModel) schedule(at Time, si int) {
	x := &queueProp{at: at, seq: m.seq, shard: m.shards[si]}
	x.stop = m.rng.Intn(40) == 0
	m.seq++
	x.tm = m.e.atShard(x.shard, at, func() { m.fire(x, si) })
	if x.tm.ev.seq != x.seq {
		m.t.Fatalf("engine assigned seq %d, model expected %d", x.tm.ev.seq, x.seq)
	}
	m.evs = append(m.evs, x)
}

// fanOut schedules n events at one instant over random shards.
func (m *queueModel) fanOut(at Time, n int) {
	for i := 0; i < n; i++ {
		m.schedule(at, m.rng.Intn(len(m.shards)))
	}
}

// fire is every event's callback.  Events of the non-global shards may
// run concurrently in a parallel instant, so they touch only their own
// record and their shard's log.
func (m *queueModel) fire(x *queueProp, si int) {
	x.state = propFired
	x.ran = m.e.Now()
	x.rank = m.e.Processed()
	if m.serial {
		m.order = append(m.order, x)
	} else {
		m.logs[si] = append(m.logs[si], x)
	}
	if x.stop {
		m.e.Stop()
	}
	if x.shard != globalShard {
		return
	}
	now := m.e.Now()
	if m.rng.Intn(3) == 0 {
		// Same-instant fan-out from inside the instant: these events
		// join the current instant behind every event already queued.
		m.fanOut(now+Time(m.rng.Intn(2)), 1+m.rng.Intn(8))
	}
	if m.rng.Intn(3) == 0 {
		m.cancelFromEvent(now)
	}
	if m.serial {
		m.checkPending("inside event")
	}
}

// cancelFromEvent cancels a random live event from inside a running
// event.  A parallel instant pops its whole wave out of the queue, so
// there only later instants are fair game; the serial engine can
// cancel a same-instant event too.
func (m *queueModel) cancelFromEvent(now Time) {
	var cands []*queueProp
	for _, x := range m.evs {
		if x.state == propLive && (x.at > now || m.serial) {
			cands = append(cands, x)
		}
	}
	if len(cands) == 0 {
		return
	}
	x := cands[m.rng.Intn(len(cands))]
	if !x.tm.Cancel() {
		m.t.Fatalf("cancel of live event (at %v, seq %d) from an event reported false", x.at, x.seq)
	}
	x.state = propCancelled
}

// step applies one random operation from outside the run.
func (m *queueModel) step(i int) {
	e := m.e
	now := e.Now()
	switch op := m.rng.Intn(10); {
	case op < 4:
		// Fan out over a few instants close to now, so instants gain
		// events across many operations and chains grow and split.
		m.fanOut(now+Time(m.rng.Intn(6)), 1+m.rng.Intn(16))
	case op < 5:
		m.schedule(now+Time(m.rng.Intn(1000)), m.rng.Intn(len(m.shards)))
	case op < 7 && len(m.evs) > 0:
		// Any handle: live, fired or cancelled.  A stale handle —
		// including a second cancel — must report false and must not
		// touch the recycled struct's new event.
		x := m.evs[m.rng.Intn(len(m.evs))]
		want := x.state == propLive
		if got := x.tm.Cancel(); got != want {
			m.t.Fatalf("op %d: Cancel() = %v for an event in state %d", i, got, x.state)
		}
		if want {
			x.state = propCancelled
		}
	case op < 9:
		e.RunUntil(now + Time(m.rng.Intn(8)))
	default:
		e.Run()
	}
	m.checkPending(fmt.Sprintf("op %d", i))
}

// check drains the engine and compares the execution against the
// reference: every live event fired at its instant, in (at, seq)
// order.
func (m *queueModel) check() {
	t := m.t
	for m.e.Pending() > 0 {
		m.e.Run()
	}
	m.checkPending("drained")
	var ref []*queueProp
	for _, x := range m.evs {
		switch x.state {
		case propLive:
			t.Fatalf("event (at %v, seq %d) never fired", x.at, x.seq)
		case propFired:
			if x.ran != x.at {
				t.Fatalf("event (at %v, seq %d) fired at %v", x.at, x.seq, x.ran)
			}
			ref = append(ref, x)
		}
	}
	slices.SortFunc(ref, func(a, b *queueProp) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	if m.serial {
		if !slices.Equal(m.order, ref) {
			t.Fatalf("serial execution order differs from the (at, seq) reference")
		}
		return
	}
	// Parallel: each shard ran its events in reference order, and
	// every global-shard event ran exactly at its reference position.
	for si, sh := range m.shards {
		var want []*queueProp
		for _, x := range ref {
			if x.shard == sh {
				want = append(want, x)
			}
		}
		if !slices.Equal(m.logs[si], want) {
			t.Fatalf("shard %d execution order differs from the (at, seq) reference", sh)
		}
	}
	for pos, x := range ref {
		if x.shard == globalShard && x.rank != uint64(pos+1) {
			t.Fatalf("global event (at %v, seq %d) ran %dth, reference position %d",
				x.at, x.seq, x.rank, pos+1)
		}
	}
}

// TestQueueOrderProperty drives the instant-chained queue through
// seeded random scenarios on the serial engine and at four workers:
// fan-out to shared instants from outside and inside the run, cancels
// of chained and head events and of stale handles, and Stop/resume —
// which in a parallel instant pushes unrun events back under instants
// that have since gained newer events.  Execution must follow the
// (at, seq) reference exactly, and Pending must equal the live count
// after every operation.
func TestQueueOrderProperty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				e := New(seed)
				e.SetWorkers(workers)
				m := &queueModel{t: t, e: e, rng: rand.New(rand.NewSource(seed)), serial: workers <= 1}
				m.shards = []int32{globalShard, e.ShardID("a"), e.ShardID("b"), e.ShardID("c")}
				m.logs = make([][]*queueProp, len(m.shards))
				for i := 0; i < 300; i++ {
					m.step(i)
				}
				m.check()
			})
		}
	}
}
