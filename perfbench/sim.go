package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/monitor"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/sim"
)

// simSpec is one simulator workload.
type simSpec struct {
	machines, jobs int
	// compute is every job's CPU demand.
	compute time.Duration
	// parallel runs the untraced passes on the sharded engine with one
	// worker per CPU; traced passes are always serial.
	parallel bool
	// ops makes the run the one an operator watches: seeded machine
	// churn, checkpointing Standard Universe jobs, an obs.Recorder as
	// Params.Trace, and a monitor with one in-process subscriber pumped
	// after every virtual minute.
	ops bool
}

// simLimit is the virtual-time limit of one pass, as in bench-pool.
const simLimit = 7 * 24 * time.Hour

// simPass is what one pass over a sim workload measured.
type simPass struct {
	setup time.Duration // pool.New, plus monitor.Attach on ops
	run   time.Duration // first submit call until every job is terminal
	// submitted is the number of jobs submitted; failed counts those
	// that did not end Completed exactly once.
	submitted, failed int
	// jobLatUS is each job's host latency: from the first submit call
	// to the first virtual-minute boundary at which its disposition
	// was final.
	jobLatUS []float64
	// peakHeap is the highest /gc/heap/live:bytes sampled at a
	// virtual-minute boundary or at the end, on a heap pass only.
	peakHeap uint64
	digest   [32]byte
	// checkErr is the first failed correctness check, if any.
	checkErr error

	// Per-layer figures.  st, queuePeak, events and the matchmaker's
	// figures are set on traced passes only.
	st                 *stepper
	newAlloc           uint64
	submit             time.Duration
	submitAlloc        uint64
	pump               time.Duration
	pumps              int64
	queuePeak          int
	events             int64
	cycleJobs          int64
	cycles, matches    int
	busSent, busLost   uint64
	journalAppends     int
	journalCompactions int
	journalBytes       int
	obsEvents          int
	monDelivered       int64
	monDropped         int
}

// freshHeap collects the heap and returns its memory to the OS, so a
// pass starts as a fresh process would: what the scavenger happens to
// have released otherwise changes how many page faults a pass takes.
func freshHeap() { debug.FreeOSMemory() }

// heapLive and heapAllocs read the runtime's live-heap and
// cumulative-allocation counters.
func heapLive() uint64   { return readUint("/gc/heap/live:bytes") }
func heapAllocs() uint64 { return readUint("/gc/heap/allocs:bytes") }

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// boundary pairs a virtual-minute boundary with the host time elapsed
// since the first submit call when the engine reached it.
type boundary struct {
	at   sim.Time
	host time.Duration
}

// simRig is a built pool plus, on ops, its recorder and monitor.
type simRig struct {
	p   *pool.Pool
	mon *monitor.Monitor
	col *monitor.Collector
}

// simConfig is the pool configuration of a workload; st, when set,
// becomes the traced run's tracer, forwarding to the recorder on ops.
func simConfig(w simSpec, seed int64, workers int, st *stepper) (pool.Config, *obs.Recorder) {
	cfg := pool.Config{
		Seed:     seed,
		Params:   daemon.DefaultParams(),
		Machines: pool.UniformMachines(w.machines, 2048),
		Workers:  workers,
	}
	var rec *obs.Recorder
	if w.ops {
		rec = obs.NewRecorder()
		cfg.Params.Trace = rec
		cfg.Params.CheckpointInterval = 10 * time.Minute
		cfg.Params.CheckpointOverhead = 15 * time.Second
		cfg.Params.MaxAttempts = 100
		// Owners reclaim each machine about every hour for a quarter of
		// an hour, so most jobs survive at least one eviction and
		// resume from a checkpoint.  The schedule is seeded by the pool
		// seed.
		cfg.Churn = &pool.ChurnConfig{
			Horizon:  12 * time.Hour,
			MeanUp:   time.Hour,
			Downtime: 15 * time.Minute,
		}
	}
	if st != nil {
		bt := &benchTracer{st: st}
		if rec != nil {
			bt.fwd = rec
		}
		cfg.Params.Trace = bt
	}
	return cfg, rec
}

// newSimRig is the workload's set-up: pool.New, plus monitor.Attach
// and one in-process subscriber on ops.
func newSimRig(w simSpec, cfg pool.Config, rec *obs.Recorder) (*simRig, error) {
	g := &simRig{p: pool.New(cfg)}
	if w.ops {
		g.mon = monitor.Attach(g.p, rec, "ops")
		g.col = monitor.NewCollector()
		if err := g.mon.Subscribe(g.col, 0); err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	return g, nil
}

// timeSetup builds the workload's pool once and returns how long the
// set-up took.
func timeSetup(w simSpec, seed int64, workers int) (time.Duration, error) {
	cfg, rec := simConfig(w, seed, workers, nil)
	t0 := time.Now()
	_, err := newSimRig(w, cfg, rec)
	return time.Since(t0), err
}

// Pass kinds.  A timed pass measures host time; a heap pass collects
// the heap at every virtual-minute boundary and at the end, so the live
// heap it samples is exact rather than whatever the last collection
// happened to see; a traced pass steps the engine and attributes every
// step.
const (
	passTimed = iota
	passHeap
	passTraced
)

// runSim runs one pass of the given kind.  workers selects the engine
// (<= 1 serial; traced passes must be serial).
func runSim(w simSpec, seed int64, workers int, kind int) (*simPass, error) {
	r := &simPass{}
	var st *stepper
	if kind == passTraced {
		st = newStepper()
		r.st = st
	}
	cfg, rec := simConfig(w, seed, workers, st)
	alloc0 := heapAllocs()
	t0 := time.Now()
	g, err := newSimRig(w, cfg, rec)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	r.newAlloc = heapAllocs() - alloc0
	p, mon, col := g.p, g.mon, g.col
	if st != nil {
		st.attach(p)
	}

	build := pool.UniformCompute(w.compute)
	alloc0 = heapAllocs()
	start := time.Now()
	var ids []daemon.JobID
	if w.ops {
		ids = p.SubmitStandard(w.jobs, build)
	} else {
		ids = p.SubmitJava(w.jobs, build)
	}
	r.submit = time.Since(start)
	r.submitAlloc = heapAllocs() - alloc0

	// Pool.Run's stop rule, one virtual minute at a time, so the heap
	// can be sampled and the monitor pumped at every boundary.
	pump := func() {
		if mon == nil {
			return
		}
		t := time.Now()
		mon.Pump()
		r.pump += time.Since(t)
		r.pumps++
	}
	var bounds []boundary
	deadline := p.Engine.Now().Add(simLimit)
	for p.Engine.Now() < deadline && !p.AllTerminal() {
		b := p.Engine.Now().Add(time.Minute)
		if b > deadline {
			b = deadline
		}
		if st != nil {
			st.advanceTo(b)
			r.queuePeak = max(r.queuePeak, p.Engine.Pending())
		} else {
			p.Engine.RunUntil(b)
		}
		pump()
		bounds = append(bounds, boundary{b, time.Since(start)})
		if kind == passHeap {
			runtime.GC()
			r.peakHeap = max(r.peakHeap, heapLive())
		}
	}
	pump()
	r.run = time.Since(start)
	if kind == passHeap {
		runtime.GC()
		r.peakHeap = max(r.peakHeap, heapLive())
	}

	r.submitted = len(ids)
	r.failed, r.checkErr = checkJobs(p, ids)
	r.jobLatUS = jobLatencies(p, bounds)
	r.digest = dispositionDigest(p)
	if w.ops {
		if got, want := len(col.Events()), len(rec.Events()); got != want && r.checkErr == nil {
			r.checkErr = fmt.Errorf("monitor streamed %d events, the pool recorded %d", got, want)
		}
		if mon.Dropped() != 0 && r.checkErr == nil {
			r.checkErr = fmt.Errorf("monitor dropped %d subscribers", mon.Dropped())
		}
		r.obsEvents = len(rec.Events())
		r.monDelivered = mon.Delivered()
		r.monDropped = mon.Dropped()
	}
	if st != nil {
		r.events = int64(p.Engine.Processed()) - st.marks
		r.cycles = p.Matchmaker.Cycles
		r.matches = p.Matchmaker.MatchesMade
		r.cycleJobs = st.cycleJobs
	}
	r.busSent, r.busLost = p.Bus.Sent(), p.Bus.Lost()
	j := p.Schedd.Journal()
	r.journalAppends, r.journalCompactions, r.journalBytes = j.Appends(), j.Compactions(), j.Size()
	return r, nil
}

// checkJobs verifies that every submitted job is known to the schedd
// once and ended Completed with exactly one completion in its event
// log.  It returns the number of jobs that did not, and a description
// of the first.
func checkJobs(p *pool.Pool, ids []daemon.JobID) (int, error) {
	byID := map[daemon.JobID]*daemon.Job{}
	for _, j := range p.Schedd.Jobs() {
		byID[j.ID] = j
	}
	failed := 0
	var first error
	fail := func(format string, args ...any) {
		failed++
		if first == nil {
			first = fmt.Errorf(format, args...)
		}
	}
	if len(byID) != len(ids) {
		first = fmt.Errorf("schedd holds %d jobs, %d were submitted", len(byID), len(ids))
	}
	for _, id := range ids {
		j, ok := byID[id]
		if !ok {
			fail("job %d is missing from the schedd", id)
			continue
		}
		completions := 0
		for _, e := range j.Events {
			if e.Kind == daemon.EventCompleted {
				completions++
			}
		}
		if j.State != daemon.JobCompleted || completions != 1 {
			fail("job %d ended %s with %d completions", id, j.State, completions)
		}
	}
	return failed, first
}

// dispositionDigest hashes every job's event log in the order the
// experiments' poolDispositions renders it.
func dispositionDigest(p *pool.Pool) [32]byte {
	h := sha256.New()
	for _, s := range p.Schedds {
		for _, j := range s.Jobs() {
			fmt.Fprintf(h, "== %s job %d %s\n", s.Name(), j.ID, j.State)
			h.Write([]byte(j.EventLog()))
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// jobLatencies maps each terminal job's virtual finish time to the
// host time at which the run reached the next minute boundary.
func jobLatencies(p *pool.Pool, bounds []boundary) []float64 {
	var out []float64
	for _, s := range p.Schedds {
		for _, j := range s.Jobs() {
			if !j.State.Terminal() {
				continue
			}
			i := sort.Search(len(bounds), func(i int) bool { return bounds[i].at >= j.Finished })
			if i < len(bounds) {
				out = append(out, float64(bounds[i].host.Nanoseconds())/1e3)
			}
		}
	}
	return out
}

// simWorkload measures a sim workload for at least budget.
func simWorkload(w simSpec) func(seed int64, budget time.Duration, trace bool) (*result, error) {
	return func(seed int64, budget time.Duration, trace bool) (*result, error) {
		workers := 1
		if w.parallel {
			workers = runtime.NumCPU()
		}
		fingerprint(workers)
		if trace {
			return traceSim(w, seed, budget, workers)
		}
		return measureSim(w, seed, budget, workers)
	}
}

// minPasses is the fewest passes a run makes, so every median has a
// middle; minSetups is the fewest set-ups it times.
const (
	minPasses = 3
	minSetups = 11
)

// measureSim makes one heap pass, which also warms the process up,
// then repeats timed passes, each on a fresh pool, until the budget is
// spent (see passStats.enough), then times extra set-ups up to
// minSetups.  Every end-to-end metric but peak_heap_mb is a median over
// the kept timed passes.
func measureSim(w simSpec, seed int64, budget time.Duration, workers int) (*result, error) {
	res := newResult()
	heap, err := runSim(w, seed, workers, passHeap)
	if err != nil {
		return nil, err
	}
	res.account(heap.submitted, heap.failed, heap.checkErr)
	e2e := newPassStats(budget)
	e2e.heaps = []float64{float64(heap.peakHeap) / (1 << 20)}
	for i := 1; !e2e.enough(); i++ {
		freshHeap()
		ticks := readCPUTicks()
		r, err := runSim(w, seed, workers, passTimed)
		if err != nil {
			return nil, err
		}
		steal := stealShare(ticks, readCPUTicks())
		res.account(r.submitted, r.failed, r.checkErr)
		if r.digest != heap.digest {
			res.fail(fmt.Errorf("pass %d: dispositions differ from the heap pass on the same seed", i))
		}
		if err := e2e.addPass(r.setup, r.run, r.submitted-r.failed, r.jobLatUS, steal); err != nil {
			return nil, err
		}
	}
	for e2e.setupCount() < minSetups {
		freshHeap()
		d, err := timeSetup(w, seed, workers)
		if err != nil {
			return nil, err
		}
		e2e.setups = append(e2e.setups, d.Seconds())
	}
	res.endToEnd(e2e)
	return res, nil
}

// traceSim alternates an untraced pass with a traced one until the
// budget is spent and reports the per-layer metrics as medians over
// cycles.  On a parallel workload each cycle also runs an untraced
// serial pass: the traced pass is serial, and the engine guarantees
// serial and parallel runs byte-equal, so the serial pass is both the
// base for the tracing overhead and the numerator of the parallel
// speedup.
func traceSim(w simSpec, seed int64, budget time.Duration, workers int) (*result, error) {
	res := newResult()
	layer := map[string][]float64{}
	add := func(name string, v float64) { layer[name] = append(layer[name], v) }
	var lat []float64
	// A discarded warm-up pass grows the heap first, so the first
	// cycle's untraced pass is not the only one to pay for it.
	freshHeap()
	warm, err := runSim(w, seed, workers, passTimed)
	if err != nil {
		return nil, err
	}
	res.account(warm.submitted, warm.failed, warm.checkErr)
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < budget; cycle++ {
		var un *simPass
		var unErr error
		proc := measureProcess(func() { un, unErr = runSim(w, seed, workers, passTimed) })
		if unErr != nil {
			return nil, unErr
		}
		res.account(un.submitted, un.failed, un.checkErr)
		lat = append(lat, un.jobLatUS...)
		serial := un
		speedup := 0.0
		if workers > 1 {
			freshHeap()
			s, err := runSim(w, seed, 1, passTimed)
			if err != nil {
				return nil, err
			}
			res.account(s.submitted, s.failed, s.checkErr)
			if s.digest != un.digest {
				res.fail(fmt.Errorf("parallel dispositions differ from serial"))
			}
			serial = s
			speedup = s.run.Seconds() / un.run.Seconds()
		}
		freshHeap()
		tr, err := runSim(w, seed, 1, passTraced)
		if err != nil {
			return nil, err
		}
		res.account(tr.submitted, tr.failed, tr.checkErr)
		if tr.digest != un.digest {
			res.fail(fmt.Errorf("traced dispositions differ from the untraced run"))
		}

		// Reconciliation: the labelled steps, the submit call and the
		// pumps ran one after another inside the run, so their sum can
		// only fall short of it by the harness's own time.  More than
		// the run means something was counted twice.
		attributed := tr.st.stepTotal() + tr.submit + tr.pump
		unattributed := tr.run - attributed
		if unattributed < 0 {
			return nil, fmt.Errorf("labelled times %v exceed the traced run %v", attributed, tr.run)
		}

		add("pool.new_s", tr.setup.Seconds())
		add("pool.new_alloc_mb", float64(tr.newAlloc)/(1<<20))
		add("daemon.schedd.submit_s", tr.submit.Seconds())
		add("daemon.schedd.submit_alloc_mb", float64(tr.submitAlloc)/(1<<20))
		for _, k := range daemonLabels {
			l := tr.st.layer(k)
			add("daemon."+k+".deliver_s", l.d.Seconds())
			add("daemon."+k+".deliveries", float64(l.n))
		}
		neg := tr.st.layer(labelNegotiate)
		add("daemon.matchmaker.negotiate_s", neg.d.Seconds())
		add("daemon.matchmaker.cycles", float64(tr.cycles))
		add("daemon.matchmaker.match_yield", ratio(float64(tr.matches), float64(tr.cycleJobs)))
		timers := tr.st.layer(labelTimer)
		other := tr.st.layer(labelOther)
		add("sim.timer_s", timers.d.Seconds())
		add("sim.timers", float64(timers.n))
		add("sim.other_s", other.d.Seconds())
		add("sim.events", float64(tr.events))
		add("sim.ns_per_event", ratio(float64(tr.st.stepTotal().Nanoseconds()), float64(tr.events)))
		add("sim.queue_peak", float64(tr.queuePeak))
		add("sim.bus.messages", float64(tr.busSent))
		add("sim.bus.lost", float64(tr.busLost))
		add("sim.unattributed_s", unattributed.Seconds())
		add("sim.parallel_speedup", speedup)
		add("journal.appends", float64(tr.journalAppends))
		add("journal.compactions", float64(tr.journalCompactions))
		add("journal.mb", float64(tr.journalBytes)/(1<<20))
		add("obs.events", float64(tr.obsEvents))
		add("monitor.pump_s", tr.pump.Seconds())
		add("monitor.pumps", float64(tr.pumps))
		add("monitor.delivered", float64(tr.monDelivered))
		add("monitor.dropped", float64(tr.monDropped))
		add("run.untraced_s", serial.run.Seconds())
		add("run.traced_s", tr.run.Seconds())
		add("trace.overhead_s", (tr.run - serial.run).Seconds())
		proc.add(add, un.setup+un.run)
	}
	layer["op.p99_us"] = []float64{tailLatency(lat)}
	res.perLayer(layer)
	return res, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
