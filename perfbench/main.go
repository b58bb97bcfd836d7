// Command perfbench is the repository's benchmark runner.  It drives
// the grid only through its public functions and times every layer
// from outside, around the calls into it.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it repeats untraced passes of the workload for the
// given host seconds (longer, within a bound, when the hypervisor
// steals CPU time: see steal.go) and prints the end-to-end metrics;
// with --trace 1
// it alternates untraced and traced passes and prints the per-layer
// metrics.  The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  Any failed
// correctness check makes the exit status non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads are the benchmark's workloads; the reason for each is in
// BENCHMARK.json and perfbench/README.md.
var workloads = map[string]func(seed int64, budget time.Duration, trace bool) (*result, error){
	// Machine-heavy: one Java job per machine on the large geometry.
	"wave": simWorkload(simSpec{machines: 10240, jobs: 10240, compute: 5 * time.Minute}),
	// Job-heavy: eight jobs per machine on the parallel engine.
	"backlog": simWorkload(simSpec{machines: 1024, jobs: 8192, compute: 5 * time.Minute, parallel: true}),
	// Churn, checkpoints, a recorder and a monitor.
	"churn-ops": simWorkload(simSpec{machines: 256, jobs: 1024, compute: 30 * time.Minute, ops: true}),
	// The live Figure 2 data path over loopback TCP.
	"java-io": javaIOWorkload,
}

// endToEndUnits and perLayerUnits are the metrics each mode prints;
// their names and order match BENCHMARK.json.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"peak_heap_mb", "MB"},
}

// perLayerUnits maps each per-layer metric to its unit.  A layer the
// workload does not exercise reports 0.
var perLayerUnits = map[string]string{
	"op.p99_us":                       "us",
	"pool.new_s":                      "s",
	"pool.new_alloc_mb":               "MB",
	"daemon.schedd.submit_s":          "s",
	"daemon.schedd.submit_alloc_mb":   "MB",
	"daemon.schedd.deliver_s":         "s",
	"daemon.schedd.deliveries":        "count",
	"daemon.matchmaker.deliver_s":     "s",
	"daemon.matchmaker.deliveries":    "count",
	"daemon.matchmaker.negotiate_s":   "s",
	"daemon.matchmaker.cycles":        "count",
	"daemon.matchmaker.match_yield":   "ratio",
	"daemon.startd.deliver_s":         "s",
	"daemon.startd.deliveries":        "count",
	"daemon.shadow.deliver_s":         "s",
	"daemon.shadow.deliveries":        "count",
	"daemon.starter.deliver_s":        "s",
	"daemon.starter.deliveries":       "count",
	"sim.events":                      "count",
	"sim.ns_per_event":                "ns",
	"sim.timer_s":                     "s",
	"sim.timers":                      "count",
	"sim.other_s":                     "s",
	"sim.queue_peak":                  "count",
	"sim.bus.messages":                "count",
	"sim.bus.lost":                    "count",
	"sim.unattributed_s":              "s",
	"sim.parallel_speedup":            "ratio",
	"journal.appends":                 "count",
	"journal.compactions":             "count",
	"journal.mb":                      "MB",
	"obs.events":                      "count",
	"monitor.pump_s":                  "s",
	"monitor.pumps":                   "count",
	"monitor.delivered":               "count",
	"monitor.dropped":                 "count",
	"process.cpu_s":                   "s",
	"process.cpu_per_wall":            "ratio",
	"go.gc_cpu_s":                     "s",
	"go.gc_cycles":                    "count",
	"go.alloc_mb":                     "MB",
	"javaio.read_s":                   "s",
	"javaio.reads":                    "count",
	"javaio.write_s":                  "s",
	"javaio.writes":                   "count",
	"remoteio.backend_s":              "s",
	"remoteio.backend_calls":          "count",
	"chirp.self_s":                    "s",
	"wire.chirp.syscalls":             "count",
	"wire.chirp.bytes_per_syscall":    "B",
	"wire.remoteio.syscalls":          "count",
	"wire.remoteio.bytes_per_syscall": "B",
	"run.untraced_s":                  "s",
	"run.traced_s":                    "s",
	"trace.overhead_s":                "s",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the runner's report: the JSON object on the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// errs are the failed correctness checks, printed to standard
	// error.
	errs []error
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}}
}

// fail records a failed correctness check.
func (r *result) fail(err error) {
	r.Correct = false
	r.errs = append(r.errs, err)
}

// account adds one pass's operations and its correctness verdict.
func (r *result) account(attempted, failed int, checkErr error) {
	r.Attempted += int64(attempted)
	r.Failed += int64(failed)
	if checkErr != nil {
		r.fail(checkErr)
	}
}

// stealWait bounds how long a run measures past its budget to replace
// passes left out for steal.
const stealWait = 20 * time.Second

// passRecord is one untraced pass's end-to-end figures.
type passRecord struct {
	dur                     time.Duration // set-up plus run
	setup, rate, p50, steal float64
}

// passStats collects a run's untraced passes and decides when it has
// measured enough.
type passStats struct {
	start   time.Time
	budget  time.Duration
	passes  []passRecord
	setups  []float64 // set-ups timed on their own, after the passes
	heaps   []float64
	samples int
}

func newPassStats(budget time.Duration) *passStats {
	return &passStats{start: time.Now(), budget: budget}
}

// addPass records one pass: its set-up time, ok operations completed
// in run, every operation's latency in microseconds, and the share of
// CPU time stolen while it ran.
func (s *passStats) addPass(setup, run time.Duration, ok int, latUS []float64, steal float64) error {
	sort.Float64s(latUS)
	p50, enough := tailPercentile(latUS, 0.50)
	if !enough {
		return fmt.Errorf("a pass has %d latency samples: fewer than %d beyond p50", len(latUS), minTail)
	}
	rec := passRecord{setup + run, setup.Seconds(), float64(ok) / run.Seconds(), p50, steal}
	s.passes = append(s.passes, rec)
	s.samples += len(latUS)
	fmt.Printf("pass %2d: setup %.6f s, %.1f ops/s, p50 %.1f us (%d samples), steal %.1f %%\n",
		len(s.passes), rec.setup, rec.rate, p50, len(latUS), 100*steal)
	return nil
}

// calm returns the passes that lost at most stealLimit of CPU time to
// the hypervisor, and their total duration.
func (s *passStats) calm() ([]passRecord, time.Duration) {
	var out []passRecord
	var d time.Duration
	for _, p := range s.passes {
		if p.steal <= stealLimit {
			out = append(out, p)
			d += p.dur
		}
	}
	return out, d
}

// enough reports whether the run may stop.  A calm run stops once the
// budget is spent; while stolen passes leave fewer than minPasses calm
// ones, or calm passes cover less than half the budget, it measures on
// for at most stealWait.
func (s *passStats) enough() bool {
	elapsed := time.Since(s.start)
	if len(s.passes) < minPasses || elapsed < s.budget {
		return false
	}
	calm, d := s.calm()
	if len(calm) >= minPasses && d >= s.budget/2 {
		return true
	}
	return elapsed >= s.budget+stealWait
}

// kept returns the passes the medians are taken over: the calm ones,
// or, when fewer than minPasses are calm, the minPasses least stolen.
func (s *passStats) kept() []passRecord {
	if calm, _ := s.calm(); len(calm) >= minPasses {
		return calm
	}
	least := append([]passRecord(nil), s.passes...)
	sort.SliceStable(least, func(i, j int) bool { return least[i].steal < least[j].steal })
	return least[:min(minPasses, len(least))]
}

// setupCount returns how many set-up times the metrics will use.
func (s *passStats) setupCount() int { return len(s.kept()) + len(s.setups) }

// tailLatency returns the p99 of every latency sample the untraced
// passes of a traced run took, or 0 when fewer than minTail samples lie
// beyond it.  The p99 is a per-layer diagnostic: on a shared host it
// does not repeat from run to run closely enough to gate on.
func tailLatency(latUS []float64) float64 {
	sort.Float64s(latUS)
	p99, ok := tailPercentile(latUS, 0.99)
	fmt.Printf("untraced latency samples: %d, p99 %.1f us (reportable: %v)\n", len(latUS), p99, ok)
	if !ok {
		return 0
	}
	return p99
}

// endToEnd sets the end-to-end metrics from the kept passes: each is
// the median over them (over their set-ups and the extra ones, for
// setup_s; over heap samples, for peak_heap_mb).
func (r *result) endToEnd(s *passStats) {
	kept := s.kept()
	setups := append([]float64(nil), s.setups...)
	var rates, p50s []float64
	for _, p := range kept {
		setups = append(setups, p.setup)
		rates = append(rates, p.rate)
		p50s = append(p50s, p.p50)
	}
	fmt.Printf("passes: %d kept of %d (steal at most %.0f %%), set-ups: %d, latency samples: %d (%d per pass)\n",
		len(kept), len(s.passes), 100*stealLimit, len(setups), s.samples, s.samples/len(s.passes))
	vals := map[string]float64{
		"setup_s":      median(setups),
		"ops_per_s":    median(rates),
		"op_p50_us":    median(p50s),
		"peak_heap_mb": median(s.heaps),
	}
	for _, m := range endToEndUnits {
		r.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
}

// perLayer sets every per-layer metric to the median of its values
// over the traced cycles; metrics the workload never produced are 0.
func (r *result) perLayer(vals map[string][]float64) {
	for name, unit := range perLayerUnits {
		r.Metrics[name] = metric{median(vals[name]), unit}
	}
	for name := range vals {
		if _, ok := perLayerUnits[name]; !ok {
			panic("perfbench: per-layer metric without a unit: " + name)
		}
	}
}

// processUse is the process's resource use over one measured call.
type processUse struct {
	cpu, gcCPU      time.Duration
	gcCycles, alloc uint64
}

func processCounters() processUse {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return processUse{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:    time.Duration(s[0].Value.Float64() * 1e9),
		gcCycles: s[1].Value.Uint64(),
		alloc:    s[2].Value.Uint64(),
	}
}

// measureProcess returns the process's resource use while fn ran.
func measureProcess(fn func()) processUse {
	// The GC CPU estimate is only brought up to date by a collection;
	// collect on both sides so the difference covers fn alone.
	freshHeap()
	a := processCounters()
	fn()
	runtime.GC()
	b := processCounters()
	return processUse{
		cpu:      b.cpu - a.cpu,
		gcCPU:    b.gcCPU - a.gcCPU,
		gcCycles: b.gcCycles - a.gcCycles - 1,
		alloc:    b.alloc - a.alloc,
	}
}

// add reports the resource use against wall, the host time of the
// run it covered.
func (u processUse) add(add func(string, float64), wall time.Duration) {
	add("process.cpu_s", u.cpu.Seconds())
	add("process.cpu_per_wall", ratio(u.cpu.Seconds(), wall.Seconds()))
	add("go.gc_cpu_s", u.gcCPU.Seconds())
	add("go.gc_cycles", float64(u.gcCycles))
	add("go.alloc_mb", float64(u.alloc)/(1<<20))
}

// fingerprint prints the host and runtime settings the numbers were
// taken under.
func fingerprint(workers int) {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s engine_workers=%d GOGC=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), workers, gogc)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds >= 1, --trace 0|1\n",
			strings.Join(names, ","))
		return 2
	}
	res, err := w(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", *name, e)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}
