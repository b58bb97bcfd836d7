package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// Recorder is the collecting Tracer: it retains every event in emit
// order and aggregates counters and histograms.  It is safe for
// concurrent use; under the deterministic simulation, emit order is
// itself deterministic, so a recorded trace is reproducible byte for
// byte.
//
// The event log is a list of chunks, not one growing slice: an Emit
// writes into the last chunk or allocates a fresh one, and never
// copies or re-zeroes an event already recorded.  Readers get copies
// (Events, EventsFrom) or a read-only view (EventLog), so the layout
// never leaks.
type Recorder struct {
	mu       sync.Mutex
	chunks   [][]Event // chunk k holds chunkLen(k) events; all but the last full
	n        int       // events recorded
	counters map[string]int64
	hists    map[string]*Histogram
}

// The log's chunk sizes.  The first eventChunk events fill chunks of
// 32, 32, 64, 128, 256 and 512 events, so a short trace (a test, one
// sweep cell) costs a few KiB; every later chunk holds eventChunk.  At
// 120 bytes an Event, such a chunk is 120 KiB, a whole number of 8 KiB
// heap pages, so it carries no allocator slack.
const (
	firstChunk = 32
	geoChunks  = 6 // chunks before the first full-size one
	eventChunk = 1024
)

// chunkLen is the number of events chunk k holds.
func chunkLen(k int) int {
	switch {
	case k == 0:
		return firstChunk
	case k < geoChunks:
		return firstChunk << (k - 1)
	}
	return eventChunk
}

// slot locates event i: its chunk and its offset within the chunk.
func slot(i int) (chunk, off int) {
	switch {
	case i < firstChunk:
		return 0, i
	case i < eventChunk:
		k := bits.Len(uint(i / firstChunk))
		return k, i - firstChunk<<(k-1)
	}
	return geoChunks + (i-eventChunk)/eventChunk, (i - eventChunk) % eventChunk
}

// Histogram is a cheap summary of one observed distribution.
type Histogram struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Enabled reports true: callers should build full events.
func (r *Recorder) Enabled() bool { return true }

// Emit appends the event.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	k, off := slot(r.n)
	if off == 0 {
		r.chunks = append(r.chunks, make([]Event, chunkLen(k)))
	}
	r.chunks[k][off] = ev
	r.n++
	r.mu.Unlock()
}

// Count adds delta to the named counter.
func (r *Recorder) Count(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Observe records one sample of the named distribution.
func (r *Recorder) Observe(name string, v int64) {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{Min: v, Max: v}
		r.hists[name] = h
	}
	h.Count++
	h.Sum += v
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	r.mu.Unlock()
}

// Len returns the number of events recorded, without copying them.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Events returns a copy of the recorded events in emit order.
func (r *Recorder) Events() []Event {
	log := r.EventLog()
	return log.appendFrom(make([]Event, 0, log.n), 0)
}

// EventsFrom returns a copy of the events from index i on, and the
// total number recorded.  A reader that keeps a cursor into the log
// copies only its unread tail, not the whole history.
func (r *Recorder) EventsFrom(i int) ([]Event, int) {
	log := r.EventLog()
	if i >= log.n {
		return nil, log.n
	}
	return log.appendFrom(make([]Event, 0, log.n-i), i), log.n
}

// EventLog returns a read-only view of the events recorded so far,
// without copying them.
func (r *Recorder) EventLog() EventLog {
	r.mu.Lock()
	defer r.mu.Unlock()
	return EventLog{chunks: r.chunks, n: r.n}
}

// EventLog is a view of the first Len events of a Recorder.  A
// recorded event is never moved or rewritten, and an Emit only ever
// writes past the view's end, so a view is read without the
// recorder's lock while emitters carry on; it just does not see their
// later events.
type EventLog struct {
	chunks [][]Event
	n      int
}

// Len returns the number of events in the view.
func (l EventLog) Len() int { return l.n }

// appendFrom appends events i..Len-1 to dst, a chunk at a time.
func (l EventLog) appendFrom(dst []Event, i int) []Event {
	for i < l.n {
		k, off := slot(i)
		chunk := l.chunks[k][off:]
		chunk = chunk[:min(len(chunk), l.n-i)]
		dst = append(dst, chunk...)
		i += len(chunk)
	}
	return dst
}

// At returns event i; it panics unless 0 <= i < Len.
func (l EventLog) At(i int) Event {
	if i < 0 || i >= l.n {
		panic(fmt.Sprintf("obs: event %d of a log of %d", i, l.n))
	}
	k, off := slot(i)
	return l.chunks[k][off]
}

// Counter returns the named counter's value.
func (r *Recorder) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// CounterNames returns the counter names, sorted.
func (r *Recorder) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Hist returns a copy of the named histogram summary, or a zero
// summary when nothing was observed.
func (r *Recorder) Hist(name string) Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return *h
	}
	return Histogram{}
}

// HistNames returns the histogram names, sorted.
func (r *Recorder) HistNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExportOptions configure the JSONL export.
type ExportOptions struct {
	// Normalize prepares a trace from the live (wall-clock) stacks
	// for byte comparison: timestamps and span latencies are zeroed,
	// free-form details are dropped (on a live stack they embed
	// ephemeral ports and OS error text), and event/span lines are
	// sorted, so concurrent emitters cannot make two
	// otherwise-identical traces differ by arrival order.
	Normalize bool
}

// wallSuffix marks histograms measured in wall-clock nanoseconds.
// They are kept for interactive inspection but never exported: wall
// time is nondeterministic even under the simulation (the matchmaker
// measures its real cycle time), and a deterministic trace is the
// whole point of the export.
const wallSuffix = "_wall_ns"

// WriteJSONL writes the whole recording as JSON lines: events, then
// assembled spans, then counters, then histograms.  Under the
// simulation the output is byte-identical across same-seed runs; with
// opts.Normalize it is byte-identical for live runs too, up to the
// (asserted-on) set of events.
func (r *Recorder) WriteJSONL(w io.Writer, opts ExportOptions) error {
	events := r.Events()
	spans := AssembleSpans(events)

	evLines := make([]string, 0, len(events))
	for _, ev := range events {
		if opts.Normalize {
			ev.T = 0
			ev.Detail = ""
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		evLines = append(evLines, string(b))
	}
	spanLines := make([]string, 0, len(spans))
	for _, sp := range spans {
		if opts.Normalize {
			sp.Start, sp.End, sp.LatencyNS = 0, 0, 0
		}
		b, err := json.Marshal(struct {
			Span Span `json:"span"`
		}{sp})
		if err != nil {
			return err
		}
		spanLines = append(spanLines, string(b))
	}
	if opts.Normalize {
		sort.Strings(evLines)
		sort.Strings(spanLines)
	}
	for _, line := range evLines {
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	for _, line := range spanLines {
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	for _, name := range r.CounterNames() {
		b, err := json.Marshal(struct {
			Counter string `json:"counter"`
			Value   int64  `json:"value"`
		}{name, r.Counter(name)})
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, string(b)+"\n"); err != nil {
			return err
		}
	}
	for _, name := range r.HistNames() {
		if strings.HasSuffix(name, wallSuffix) {
			continue
		}
		h := r.Hist(name)
		b, err := json.Marshal(struct {
			Hist string `json:"hist"`
			Histogram
		}{name, h})
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, string(b)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// JSONL returns WriteJSONL's output as a string.
func (r *Recorder) JSONL(opts ExportOptions) string {
	var sb strings.Builder
	// strings.Builder never returns a write error.
	_ = r.WriteJSONL(&sb, opts)
	return sb.String()
}

// Spans assembles the recorded error events into propagation spans.
func (r *Recorder) Spans() []Span {
	return AssembleSpans(r.Events())
}

// SortedSpanSet renders the spans as one sorted, time-free string per
// span — the canonical form concurrent live-stack tests compare, so
// goroutine arrival order cannot make a correct run flaky.
func (r *Recorder) SortedSpanSet() []string {
	spans := r.Spans()
	out := make([]string, 0, len(spans))
	for _, sp := range spans {
		out = append(out, fmt.Sprintf("job=%d origin=%s %s %s/%s -> %s disp=%s hops=%s",
			sp.Job, sp.Origin, sp.Code, sp.Scope, sp.EKind,
			sp.FinalScope, sp.Disposition, strings.Join(sp.Hops, "; ")))
	}
	sort.Strings(out)
	return out
}
