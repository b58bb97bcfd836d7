package main

import (
	"strings"
	"sync"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/sim"
)

// Step labels.  A delivery step is labelled with the kind of actor it
// was delivered to; a timer step is a negotiation cycle or a plain
// timer.
const (
	labelSchedd     = "schedd"
	labelMatchmaker = "matchmaker"
	labelStartd     = "startd"
	labelShadow     = "shadow"
	labelStarter    = "starter"
	labelOther      = "other"
	labelNegotiate  = "negotiate"
	labelTimer      = "timer"
)

// daemonLabels are the actor kinds reported as daemon.<kind>.*.
var daemonLabels = []string{labelSchedd, labelMatchmaker, labelStartd, labelShadow, labelStarter}

// classifier maps a bus destination to the kind of actor behind it.
// Shadows and starters are named by the daemons that spawn them
// ("shadow:<schedd>:<n>", "starter:<machine>:<n>"); schedds and startds
// carry configured names, so they are looked up.
type classifier struct {
	schedds, startds map[string]bool
}

func newClassifier(p *pool.Pool) classifier {
	c := classifier{schedds: map[string]bool{}, startds: map[string]bool{}}
	for _, s := range p.Schedds {
		c.schedds[s.Name()] = true
	}
	for _, sd := range p.Startds {
		c.startds[sd.Name()] = true
	}
	return c
}

func (c classifier) kind(to string) string {
	switch {
	case strings.HasPrefix(to, "shadow:"):
		return labelShadow
	case strings.HasPrefix(to, "starter:"):
		return labelStarter
	case to == daemon.MatchmakerName:
		return labelMatchmaker
	case c.schedds[to]:
		return labelSchedd
	case c.startds[to]:
		return labelStartd
	}
	return labelOther
}

// stepLabel labels one engine step from what was observed while it
// ran: the destination kind if the bus delivered a message, otherwise
// negotiation when the step's first counter is the matchmaker's cycle
// counter (Matchmaker.negotiate counts it before anything else), and
// a plain timer for everything else.
func stepLabel(delivery, firstCounter string) string {
	switch {
	case delivery != "":
		return delivery
	case firstCounter == "matchmaker.cycles":
		return labelNegotiate
	}
	return labelTimer
}

// layerTime accumulates the host time and count of one step label.
type layerTime struct {
	d time.Duration
	n int64
}

// stepper drives a serial engine one Step at a time and attributes
// each step's host time to the layer that ran it.  It observes the
// engine only through public hooks: Bus.Trace names the destination of
// a delivery, and the benchmark tracer (Params.Trace) sees the first
// counter a timer step bumps.
type stepper struct {
	eng    *sim.Engine
	mm     *daemon.Matchmaker
	cls    classifier
	layers map[string]*layerTime
	// cycleJobs sums the jobs each negotiation cycle considered: the
	// jobs still pending after it plus the ones it matched away.
	cycleJobs int64

	// Per-step observations, reset before every Step.
	dest, first string
	markFired   bool
	markFn      func()
	// marks counts the sentinel events advanceTo scheduled; they are
	// harness events, not simulation work.
	marks int64
}

func newStepper() *stepper {
	s := &stepper{layers: map[string]*layerTime{}}
	s.markFn = func() { s.markFired = true }
	return s
}

// attach binds the stepper to a freshly built pool.
func (s *stepper) attach(p *pool.Pool) {
	s.eng = p.Engine
	s.mm = p.Matchmaker
	s.cls = newClassifier(p)
	p.Bus.Trace = func(m sim.Message, _ bool) {
		if s.dest == "" {
			s.dest = s.cls.kind(m.To)
		}
	}
}

// advanceTo runs every event at or before b and leaves the clock at b:
// Engine.RunUntil's contract, one Step at a time.  The engine exposes
// no peek, so a sentinel event at b marks the boundary.  Events for b
// scheduled after the sentinel would run after it, so the sentinel is
// re-armed until two fire back to back, which proves nothing at b is
// left.  Events are ordered by (time, insertion order), so the
// sentinels shift no other event's order.
func (s *stepper) advanceTo(b sim.Time) {
	s.eng.At(b, s.markFn)
	rearmed, ranSinceMark := false, false
	for {
		s.dest, s.first, s.markFired = "", "", false
		matches := s.mm.MatchesMade
		t0 := time.Now()
		s.eng.Step()
		d := time.Since(t0)
		if s.markFired {
			s.marks++
			if rearmed && !ranSinceMark {
				return
			}
			rearmed, ranSinceMark = true, false
			s.eng.At(b, s.markFn)
			continue
		}
		ranSinceMark = true
		label := stepLabel(s.dest, s.first)
		if label == labelNegotiate {
			s.cycleJobs += int64(s.mm.PendingJobs() + s.mm.MatchesMade - matches)
		}
		l := s.layers[label]
		if l == nil {
			l = &layerTime{}
			s.layers[label] = l
		}
		l.d += d
		l.n++
	}
}

// stepTotal returns the host time of every attributed step.
func (s *stepper) stepTotal() time.Duration {
	var t time.Duration
	for _, l := range s.layers {
		t += l.d
	}
	return t
}

// layer returns the accumulated time of one label (zero if none ran).
func (s *stepper) layer(label string) layerTime {
	if l := s.layers[label]; l != nil {
		return *l
	}
	return layerTime{}
}

// benchTracer is the traced run's Params.Trace.  It records the first
// counter bumped in each step for the stepper and forwards everything
// to the workload's own tracer, if it has one.
type benchTracer struct {
	st  *stepper
	fwd obs.Tracer
}

func (t *benchTracer) Enabled() bool { return t.fwd != nil && t.fwd.Enabled() }

func (t *benchTracer) Emit(ev obs.Event) {
	if t.fwd != nil {
		t.fwd.Emit(ev)
	}
}

func (t *benchTracer) Count(name string, delta int64) {
	if t.st.first == "" {
		t.st.first = name
	}
	if t.fwd != nil {
		t.fwd.Count(name, delta)
	}
}

func (t *benchTracer) Observe(name string, v int64) {
	if t.fwd != nil {
		t.fwd.Observe(name, v)
	}
}

// span is one timed call at a layer boundary.  Spans of one java-io
// operation share Req; Parent is the id of the span that caused it (0
// for a root).  Times are nanoseconds from the start of the pass.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the pass ends.  Backend spans
// are recorded on the proxy's connection goroutine, so it is locked.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func (l *spanLog) add(sp span) {
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.base)) }

// selfTimes returns, for every span named parentName, its duration
// minus the part of it that its children cover, summed.  Children
// are assumed not to overlap each other, which holds for the
// closed-loop java-io client: one operation, one backend call at a
// time.
func selfTimes(spans []span, parentName string) time.Duration {
	covered := map[int64]int64{}
	byID := map[int64]span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	for _, sp := range spans {
		p, ok := byID[sp.Parent]
		if !ok || sp.Parent == 0 {
			continue
		}
		lo, hi := max(sp.Start, p.Start), min(sp.End, p.End)
		if hi > lo {
			covered[p.ID] += hi - lo
		}
	}
	var self int64
	for _, sp := range spans {
		if sp.Name == parentName {
			self += sp.End - sp.Start - covered[sp.ID]
		}
	}
	return time.Duration(self)
}
