package monitor

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/pool"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// testPool builds a small Standard Universe workload with a recorder
// wired into the daemon params, the shape the ops plane streams.
func testPool(seed int64, machines []daemon.MachineConfig, jobs int) (*pool.Pool, *obs.Recorder) {
	rec := obs.NewRecorder()
	params := daemon.DefaultParams()
	params.Trace = rec
	params.CheckpointInterval = 10 * time.Minute
	params.CheckpointOverhead = 15 * time.Second
	params.MaxAttempts = 100
	p := pool.New(pool.Config{Seed: seed, Params: params, Machines: machines})
	p.SubmitStandard(jobs, pool.UniformCompute(90*time.Minute))
	return p, rec
}

// drive replicates Pool.Run's stepping loop with a pump after every
// step — the way a monitor rides a simulated pool.
func drive(p *pool.Pool, mon *Monitor, limit time.Duration, at map[time.Duration]func()) {
	deadline := p.Engine.Now().Add(limit)
	for p.Engine.Now() < deadline && !p.AllTerminal() {
		p.Engine.RunFor(time.Minute)
		if fn, ok := at[time.Duration(p.Engine.Now())]; ok {
			fn()
			delete(at, time.Duration(p.Engine.Now()))
		}
		if mon != nil {
			mon.Pump()
		}
	}
}

// dispositions renders every job's final state and event log — the
// bytes the scope proof compares.
func dispositions(p *pool.Pool) string {
	var sb strings.Builder
	for _, s := range p.Schedds {
		for _, j := range s.Jobs() {
			fmt.Fprintf(&sb, "== %s job %d %s\n", s.Name(), j.ID, j.State)
			sb.WriteString(j.EventLog())
		}
	}
	return sb.String()
}

// TestStreamMatchesTrace pins stream fidelity: what a subscriber
// collects is exactly what the pool recorded, event for event, and a
// late subscriber catches up on the whole backlog.
func TestStreamMatchesTrace(t *testing.T) {
	p, rec := testPool(7, pool.UniformMachines(4, 2048), 4)
	mon := Attach(p, rec, "mon")

	early := NewCollector()
	if err := mon.Subscribe(early, 0); err != nil {
		t.Fatal(err)
	}
	var late *Collector
	drive(p, mon, 24*time.Hour, map[time.Duration]func(){
		time.Hour: func() {
			late = NewCollector()
			if err := mon.Subscribe(late, 0); err != nil {
				t.Fatal(err)
			}
		},
	})
	mon.Pump()

	want := rec.Events()
	if len(want) == 0 {
		t.Fatal("workload recorded no events")
	}
	for name, col := range map[string]*Collector{"early": early, "late": late} {
		got := col.Events()
		if len(got) != len(want) {
			t.Fatalf("%s subscriber got %d events, pool recorded %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s subscriber event %d differs: %+v != %+v", name, i, got[i], want[i])
			}
		}
	}
	snaps := early.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no metrics snapshots streamed")
	}
	final := snaps[len(snaps)-1]
	m := p.Metrics()
	if final.Completed != int64(m.Completed) || final.Jobs != int64(m.Jobs) {
		t.Fatalf("final snapshot %+v disagrees with pool metrics %+v", final, m)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].T < snaps[i-1].T {
			t.Fatalf("snapshot clock went backwards: %d then %d", snaps[i-1].T, snaps[i].T)
		}
	}

	// The streamed trace supports the same span assembly as the pool's.
	if len(rec.Spans()) != len(early.Recorder().Spans()) {
		t.Fatal("streamed spans differ from pool spans")
	}
}

// TestMonitorScopeProof is the attach/detach failure-scope property:
// the pool's dispositions and trace are byte-equal with no monitor,
// with a healthy monitor, and with a subscriber that dies mid-stream
// and is dropped.  A dead subscriber's failure reaches nothing but
// its own session.
func TestMonitorScopeProof(t *testing.T) {
	machines := func() []daemon.MachineConfig { return pool.UniformMachines(4, 2048) }

	run := func(attach bool, failing bool) (string, string) {
		p, rec := testPool(3, machines(), 6)
		var mon *Monitor
		if attach {
			mon = Attach(p, rec, "mon")
			if err := mon.Subscribe(NewCollector(), 0); err != nil {
				t.Fatal(err)
			}
			if failing {
				if err := mon.Subscribe(FailAfter(25), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		drive(p, mon, 24*time.Hour, nil)
		return dispositions(p), rec.JSONL(obs.ExportOptions{})
	}

	bareDisp, bareTrace := run(false, false)
	monDisp, monTrace := run(true, false)
	dropDisp, dropTrace := run(true, true)

	if bareDisp != monDisp || bareTrace != monTrace {
		t.Fatal("attaching a monitor changed the pool's bytes")
	}
	if bareDisp != dropDisp || bareTrace != dropTrace {
		t.Fatal("a dying subscriber changed the pool's bytes")
	}
}

// TestSubscriberDropIsScoped pins the drop mechanics: the failed sink
// closes, the healthy one keeps streaming, and the loss lands in the
// monitor's own log, not the pool trace.
func TestSubscriberDropIsScoped(t *testing.T) {
	p, rec := testPool(9, pool.UniformMachines(2, 2048), 2)
	mon := Attach(p, rec, "mon")
	healthy, failing := NewCollector(), FailAfter(10)
	if err := mon.Subscribe(healthy, 0); err != nil {
		t.Fatal(err)
	}
	if err := mon.Subscribe(failing, 0); err != nil {
		t.Fatal(err)
	}
	drive(p, mon, 24*time.Hour, nil)
	mon.Pump()

	if !failing.Closed() {
		t.Error("failed sink was not closed")
	}
	if healthy.Closed() {
		t.Error("healthy sink was closed")
	}
	if mon.Dropped() != 1 || mon.Subscribers() != 1 {
		t.Errorf("dropped=%d subscribers=%d, want 1 and 1", mon.Dropped(), mon.Subscribers())
	}
	if got, want := len(healthy.Events()), len(rec.Events()); got != want {
		t.Errorf("healthy subscriber got %d of %d events", got, want)
	}
	var logged bool
	for _, line := range mon.Log() {
		if strings.Contains(line, "subscriber dropped") {
			logged = true
		}
	}
	if !logged {
		t.Error("the drop is missing from the monitor's log")
	}
}

// TestKill pins daemon death: every session closes, new subscribers
// are refused with process scope, and pumping is a no-op.
func TestKill(t *testing.T) {
	p, rec := testPool(4, pool.UniformMachines(2, 2048), 2)
	mon := Attach(p, rec, "mon")
	a, b := NewCollector(), NewCollector()
	mon.Subscribe(a, 0)
	mon.Subscribe(b, 0)
	if n := mon.Kill(); n != 2 {
		t.Fatalf("Kill closed %d sessions, want 2", n)
	}
	if !a.Closed() || !b.Closed() {
		t.Fatal("kill left a session open")
	}
	if !mon.Killed() {
		t.Fatal("monitor does not report killed")
	}
	err := mon.Subscribe(NewCollector(), 0)
	se, ok := scope.AsError(err)
	if !ok || se.Scope != scope.ScopeProcess || se.Code != "MonitorDead" {
		t.Fatalf("subscribe after kill: %v, want process-scope MonitorDead", err)
	}
	if _, err := mon.Admin("drain", "c000"); err == nil {
		t.Fatal("admin verb on a killed monitor should fail")
	}
	before := len(a.Events())
	p.Run(time.Hour)
	mon.Pump()
	if len(a.Events()) != before {
		t.Fatal("a killed monitor delivered events")
	}
}

// TestSubscribeRejectsBadCursor pins the in-process mirror of
// ParseSub's validation: a negative cursor is refused outright rather
// than parked where the pump would slice events[sub.next:] with it
// and panic.
func TestSubscribeRejectsBadCursor(t *testing.T) {
	p, rec := testPool(11, pool.UniformMachines(2, 2048), 1)
	mon := Attach(p, rec, "mon")
	err := mon.Subscribe(NewCollector(), -1)
	se, ok := scope.AsError(err)
	if !ok || se.Scope != scope.ScopeFunction || se.Code != CodeBadRequest {
		t.Fatalf("subscribe from -1: %v, want function-scope %s", err, CodeBadRequest)
	}
	if mon.Subscribers() != 0 {
		t.Fatal("a refused subscriber was registered")
	}
	p.Run(time.Hour)
	mon.Pump() // must not panic on a parked bad cursor
}

// TestAdminRefusedByConcurrentKill pins the verb/kill ordering: a
// kill that lands after Admin's entry check but before the verb
// reaches the pool thread still refuses the verb — a killed monitor
// mutates nothing.
func TestAdminRefusedByConcurrentKill(t *testing.T) {
	p, rec := testPool(16, pool.UniformMachines(2, 2048), 1)
	var mon *Monitor
	mon = New(Config{
		Name: "mon", Clock: p.Engine, Recorder: rec,
		Metrics: PoolMetrics(p), Targets: PoolTargets(p),
		// The kill wins the race to the pool thread.
		Do: func(fn func()) {
			mon.Kill()
			fn()
		},
	})
	_, err := mon.Admin("drain", p.Startds[0].Name())
	se, ok := scope.AsError(err)
	if !ok || se.Scope != scope.ScopeProcess || se.Code != "MonitorDead" {
		t.Fatalf("admin under concurrent kill: %v, want process-scope MonitorDead", err)
	}
	if p.Startds[0].Draining() || p.Startds[0].Drained() {
		t.Fatal("a killed monitor drained a machine")
	}
}

// TestNormalizeStream pins the live-comparable form: streamed events
// carry no timestamps and no free-form detail.
func TestNormalizeStream(t *testing.T) {
	p, rec := testPool(6, pool.UniformMachines(2, 2048), 2)
	mon := New(Config{
		Name: "mon", Clock: p.Engine, Recorder: rec,
		Metrics: PoolMetrics(p), Normalize: true, Targets: PoolTargets(p),
	})
	col := NewCollector()
	mon.Subscribe(col, 0)
	drive(p, mon, 24*time.Hour, nil)
	mon.Pump()
	evs := col.Events()
	if len(evs) == 0 {
		t.Fatal("nothing streamed")
	}
	for _, ev := range evs {
		if ev.T != 0 || ev.Detail != "" {
			t.Fatalf("normalized stream leaked wall data: %+v", ev)
		}
	}
}

// TestAdminVerbs drives the full drain lifecycle through the verb
// interface and pins the failure scope of every miss: unknown verbs
// and targets are the pool's explicit errors, a verb against a dead
// daemon carries that daemon's scope.
func TestAdminVerbs(t *testing.T) {
	machines := []daemon.MachineConfig{
		{Name: "big", Memory: 4096, AdvertiseJava: true},
		{Name: "small", Memory: 1024, AdvertiseJava: true},
	}
	p, rec := testPool(5, machines, 1)
	mon := Attach(p, rec, "mon")

	// Unknown verb and unknown targets are pool-scope errors naming
	// what was asked.
	for _, bad := range [][2]string{
		{"reboot", "big"}, {"drain", "nosuch"}, {"restart", "nosuch"}, {"compact", "big"},
	} {
		_, err := mon.Admin(bad[0], bad[1])
		se, ok := scope.AsError(err)
		if !ok || se.Scope != scope.ScopePool {
			t.Fatalf("admin %s %s: %v, want a pool-scope error", bad[0], bad[1], err)
		}
	}

	// Drain mid-run: the resident vacates with its checkpoint and the
	// job finishes on the other machine.
	drive(p, mon, 30*time.Minute, nil)
	detail, err := mon.Admin("drain", "big")
	if err != nil {
		t.Fatalf("drain big: %v", err)
	}
	if !strings.Contains(detail, "draining big") {
		t.Fatalf("drain detail %q", detail)
	}
	if _, err := mon.Admin("drain", "big"); err != nil {
		t.Fatalf("drain must be idempotent: %v", err)
	}
	drive(p, mon, 48*time.Hour, nil)
	var big *daemon.Startd
	for _, sd := range p.Startds {
		if sd.Name() == "big" {
			big = sd
		}
	}
	if !big.Drained() {
		t.Fatal("big did not reach drained")
	}
	if m := p.Metrics(); m.Completed != 1 {
		t.Fatalf("job did not survive the drain: %+v", m)
	}
	if att := p.Schedd.Jobs()[0].LastAttempt(); att.Machine != "small" {
		t.Fatalf("job finished on %s, want small", att.Machine)
	}

	// Resume restores matching.
	if _, err := mon.Admin("resume", "big"); err != nil {
		t.Fatal(err)
	}
	if big.Drained() || big.Draining() {
		t.Fatal("resume did not clear the drain")
	}

	// Drain against a dead machine fails at remote-resource scope —
	// the scope of the machine the verb touched.
	big.Crash()
	_, err = mon.Admin("drain", "big")
	se, ok := scope.AsError(err)
	if !ok || se.Scope != scope.ScopeRemoteResource || se.Code != "MachineDown" {
		t.Fatalf("drain of a dead machine: %v", err)
	}
	big.Restart()

	// Restart bounces a startd through its crash/recover path.
	if _, err := mon.Admin("restart", "small"); err != nil {
		t.Fatal(err)
	}

	// Compact folds the schedd journal; against a crashed schedd it
	// fails at local-resource scope.
	if detail, err = mon.Admin("compact", "schedd"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(detail, "compacted") {
		t.Fatalf("compact detail %q", detail)
	}
	p.Schedd.Crash()
	_, err = mon.Admin("compact", "schedd")
	se, ok = scope.AsError(err)
	if !ok || se.Scope != scope.ScopeLocalResource || se.Code != "ScheddDown" {
		t.Fatalf("compact of a dead schedd: %v", err)
	}

	// Restart recovers the schedd from its own journal.
	if _, err := mon.Admin("restart", "schedd"); err != nil {
		t.Fatal(err)
	}
	if p.Schedd.Crashed() {
		t.Fatal("schedd still down after restart")
	}
}

// TestAdminRestartScheddMidRun bounces the schedd while jobs are in
// flight: the journal replay keeps every job, and the workload still
// completes.
func TestAdminRestartScheddMidRun(t *testing.T) {
	p, rec := testPool(8, pool.UniformMachines(4, 2048), 6)
	mon := Attach(p, rec, "mon")
	drive(p, mon, 24*time.Hour, map[time.Duration]func(){
		45 * time.Minute: func() {
			if _, err := mon.Admin("restart", "schedd"); err != nil {
				t.Errorf("restart schedd: %v", err)
			}
		},
	})
	m := p.Metrics()
	if m.Completed != 6 {
		t.Fatalf("workload did not complete across the restart: %+v", m)
	}
	if m.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", m.Recoveries)
	}
}

// TestPumpCopiesOnlyTheTail pins the pump's cost to the unread tail of
// the event log: a pump with nothing new to stream must not copy a
// long, already-delivered history (the copy grew quadratically with
// run length when every pump snapshotted the whole log).
func TestPumpCopiesOnlyTheTail(t *testing.T) {
	const n = 100_000
	rec := obs.NewRecorder()
	for i := 0; i < n; i++ {
		rec.Emit(obs.Event{T: int64(i), Comp: "schedd", Kind: obs.KindState})
	}
	mon := New(Config{Name: "mon", Clock: sim.New(1), Recorder: rec})
	c := NewCollector()
	if err := mon.Subscribe(c, n); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mon.Pump()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("an idle pump over %d delivered events allocated %d bytes", n, got)
	}
	rec.Emit(obs.Event{T: n, Comp: "schedd", Kind: obs.KindState, Code: "late"})
	mon.Pump()
	if evs := c.Events(); len(evs) != 1 || evs[0].Code != "late" {
		t.Fatalf("streamed %+v, want only the new event", evs)
	}
}
