package sim

import (
	"testing"
	"time"
)

// queueBenchEvents is the standing queue depth of both shapes: about
// one wave's worth of events, one per machine of a 10k-machine pool.
const queueBenchEvents = 10240

// BenchmarkQueueDense measures one fire-and-reschedule cycle when every
// event shares its instant with ~10k others — the wave shape, where a
// whole fleet's timers and messages land on the same few instants.
// Each event re-arms one millisecond later, so the queue always holds
// queueBenchEvents events over one or two distinct instants.
func BenchmarkQueueDense(b *testing.B) {
	eng := New(1)
	for i := 0; i < queueBenchEvents; i++ {
		var tick func()
		tick = func() { eng.After(time.Millisecond, tick) }
		eng.After(time.Millisecond, tick)
	}
	benchSteps(b, eng)
}

// BenchmarkQueueSparse measures the same cycle when every event has an
// instant of its own — the churn-schedule shape, where a pool's
// machine lifetimes are drawn independently.  Event i first fires at
// i ns and re-arms queueBenchEvents ns later, so the queue holds
// queueBenchEvents events on as many distinct instants.  A queue that
// allocated per distinct instant would show it here.
func BenchmarkQueueSparse(b *testing.B) {
	eng := New(1)
	for i := 0; i < queueBenchEvents; i++ {
		var tick func()
		tick = func() { eng.After(queueBenchEvents, tick) }
		eng.At(Time(i+1), tick)
	}
	benchSteps(b, eng)
}

// benchSteps warms the engine's free list with one full rotation of
// the queue, then times b.N steps.
func benchSteps(b *testing.B, eng *Engine) {
	for i := 0; i < queueBenchEvents; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
