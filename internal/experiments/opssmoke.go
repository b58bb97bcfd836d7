package experiments

import (
	"fmt"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/monitor"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/pool"
)

// OpsSmoke is the make-check gate for the live operations plane: the
// same seeded workload runs bare, then monitored — a streaming monitor
// attached with two subscribers (one dying mid-stream), a drain issued
// through the admin plane, a detach at the end — serial, rerun, and on
// the parallel engine.  Every monitored arm's dispositions and trace
// export must be byte-identical to the bare run's: observation and
// administration are scoped to their own sessions, never to the pool,
// and the admin verb is exactly the daemon call it wraps.  The stream
// itself must be a faithful copy — every event the pool recorded, in
// order — and the drained machine must vacate its resident cleanly
// enough that every job still completes.
func OpsSmoke(seed int64) (*Report, error) {
	rep := &Report{
		ID:      "ops-smoke",
		Title:   "ops-plane smoke: monitored + administered run byte-equal to bare; serial == rerun == parallel",
		Headers: []string{"arm", "jobs", "completed", "evictions", "streamed", "dispositions"},
	}
	const (
		smokeWorkers = 4
		jobs         = 12
		machines     = 8
		drainTarget  = "c002"
		drainAt      = 45 * time.Minute
	)

	type arm struct {
		p    *pool.Pool
		rec  *obs.Recorder
		mon  *monitor.Monitor
		col  *monitor.Collector
		disp string
	}

	run := func(workers int, monitored bool) (arm, error) {
		rec := obs.NewRecorder()
		params := daemon.DefaultParams()
		params.Trace = rec
		params.CheckpointInterval = 10 * time.Minute
		params.CheckpointOverhead = 15 * time.Second
		params.MaxAttempts = 100
		p := pool.New(pool.Config{
			Seed:     seed,
			Params:   params,
			Machines: pool.UniformMachines(machines, 2048),
			Workers:  workers,
		})
		p.SubmitStandard(jobs, pool.UniformCompute(90*time.Minute))

		var mon *monitor.Monitor
		var col *monitor.Collector
		var verbErr error
		if monitored {
			mon = monitor.Attach(p, rec, "ops")
			col = monitor.NewCollector()
			if err := mon.Subscribe(col, 0); err != nil {
				return arm{}, err
			}
			// A second subscriber whose sink dies mid-stream: its loss
			// must cost exactly one session, nothing else.
			dying := monitor.FailAfter(40)
			if err := mon.Subscribe(dying, 0); err != nil {
				return arm{}, err
			}
			p.Engine.After(drainAt, func() {
				if _, err := mon.Admin("drain", drainTarget); err != nil {
					verbErr = err
				}
			})
		} else {
			// The bare arm applies the identical operation directly —
			// the admin verb must be nothing more than this call.
			p.Engine.After(drainAt, func() {
				for _, sd := range p.Startds {
					if sd.Name() == drainTarget {
						if err := sd.Drain(); err != nil {
							verbErr = err
						}
					}
				}
			})
		}

		// Pool.Run's stepping loop with a pump after every step — the
		// way a monitor rides a simulated pool.
		deadline := p.Engine.Now().Add(72 * time.Hour)
		for p.Engine.Now() < deadline && !p.AllTerminal() {
			p.Engine.RunFor(time.Minute)
			if mon != nil {
				mon.Pump()
			}
		}
		if mon != nil {
			mon.Pump()
		}
		if verbErr != nil {
			return arm{}, fmt.Errorf("drain %s: %v", drainTarget, verbErr)
		}
		return arm{p, rec, mon, col, poolDispositions(p)}, nil
	}

	bare, err := run(0, false)
	if err != nil {
		return rep, fmt.Errorf("ops-smoke: bare arm: %v", err)
	}
	arms := map[string]arm{"bare": bare}
	verdict := "equal"
	for _, name := range []string{"monitored", "rerun", "parallel"} {
		workers := 0
		if name == "parallel" {
			workers = smokeWorkers
		}
		a, aerr := run(workers, true)
		if aerr != nil {
			return rep, fmt.Errorf("ops-smoke: %s arm: %v", name, aerr)
		}
		arms[name] = a
		if a.disp != bare.disp {
			verdict = "DIVERGED"
			err = fmt.Errorf("ops-smoke: %s dispositions diverge from bare", name)
		} else if got, want := a.rec.JSONL(obs.ExportOptions{}), bare.rec.JSONL(obs.ExportOptions{}); got != want {
			verdict = "DIVERGED"
			err = fmt.Errorf("ops-smoke: %s trace export diverges from bare", name)
		}
	}

	mona := arms["monitored"]
	if err == nil {
		// Stream fidelity: the surviving subscriber holds exactly the
		// pool's recording; the dying one cost exactly one session.
		want := mona.rec.Events()
		got := mona.col.Events()
		switch {
		case len(got) != len(want):
			err = fmt.Errorf("ops-smoke: streamed %d events, pool recorded %d", len(got), len(want))
		case mona.mon.Dropped() != 1:
			err = fmt.Errorf("ops-smoke: %d subscribers dropped, want exactly the dying one", mona.mon.Dropped())
		}
		if err == nil {
			for i := range got {
				if got[i] != want[i] {
					err = fmt.Errorf("ops-smoke: streamed event %d differs from the recording", i)
					break
				}
			}
		}
	}
	if err == nil {
		mona.mon.Detach(mona.col)
		if n := mona.mon.Subscribers(); n != 0 {
			err = fmt.Errorf("ops-smoke: %d subscribers left after detach", n)
		}
	}
	if err == nil {
		for _, sd := range mona.p.Startds {
			if sd.Name() == drainTarget && !sd.Drained() {
				err = fmt.Errorf("ops-smoke: the drain verb left %s undrained", drainTarget)
			}
		}
	}

	m := bare.p.Metrics()
	if err == nil {
		switch {
		case m.Completed != jobs:
			err = fmt.Errorf("ops-smoke: %d of %d jobs completed", m.Completed, jobs)
		case m.Evictions == 0:
			err = fmt.Errorf("ops-smoke: the drain never vacated a resident; the gate proved nothing")
		case m.IncidentalLeaks != 0:
			err = fmt.Errorf("ops-smoke: %d evictions leaked to users as job errors", m.IncidentalLeaks)
		}
	}

	for _, name := range []string{"bare", "monitored", "rerun", "parallel"} {
		a := arms[name]
		am := a.p.Metrics()
		streamed := "-"
		if a.col != nil {
			streamed = fmt.Sprint(a.col.Recorder().Len())
		}
		rep.AddRow(name, fmt.Sprint(jobs), fmt.Sprint(am.Completed),
			fmt.Sprint(am.Evictions), streamed, verdict)
	}
	if err == nil {
		rep.AddNote("drain %s at %s vacated %d resident(s); every byte of every arm matches the bare run",
			drainTarget, drainAt, m.Evictions)
	}
	return rep, err
}
