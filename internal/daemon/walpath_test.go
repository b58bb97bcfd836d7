package daemon

import (
	"testing"
	"time"

	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// replayedQueue rebuilds a queue from the journal's current contents
// in a scratch schedd — the snapshot, then every entry, as Recover
// applies them but without normalizing in-flight jobs — and returns
// its summary, comparable with the live queue's.
func replayedQueue(t *testing.T, wal *journal.Journal) string {
	t.Helper()
	r := wal.Replay()
	if r.Truncated != 0 {
		t.Fatalf("live journal has a %d-byte torn tail", r.Truncated)
	}
	s := NewSchedd(sim.NewBus(sim.New(1), time.Millisecond), DefaultParams(), "schedd")
	if err := s.applySnapshot(r.Snapshot); err != nil {
		t.Fatalf("snapshot replay: %v", err)
	}
	for i, e := range r.Entries {
		if err := s.applyEntry(e); err != nil {
			t.Fatalf("record %d replay: %v", i, err)
		}
	}
	return queueSummary(s)
}

// waveProgram is job i's program: completions, program exceptions,
// and non-zero exits, so the queue carries every kind of result.
func waveProgram(i int) *jvm.Program {
	switch i % 3 {
	case 0:
		return jvm.WellBehaved(time.Duration(i+1) * 10 * time.Second)
	case 1:
		return jvm.NullPointer()
	}
	return jvm.ExitWith(3, 2*time.Second)
}

// TestCompactedJournalMatchesUncrashedTwin runs the same two waves of
// jobs on two pools.  The first pool's journal is compacted
// repeatedly while jobs are in flight, and each time the streamed
// snapshot must replay to exactly the live queue.  Between the waves
// that schedd crashes and recovers from its journal.  After the second
// wave its queue and dispositions must equal those of the twin that
// never compacted by hand or crashed, and its journal must still
// replay to the live queue.
func TestCompactedJournalMatchesUncrashedTwin(t *testing.T) {
	machines := []MachineConfig{goodMachine("m1"), goodMachine("m2"), goodMachine("m3")}
	run := func(crash bool) (*Schedd, string) {
		eng, _, schedd, _, _ := testPool(t, DefaultParams(), machines...)
		for i := 0; i < 18; i++ {
			submitJavaJob(schedd, waveProgram(i))
		}
		if crash {
			for _, at := range []time.Duration{61 * time.Second, 150 * time.Second, 4 * time.Minute} {
				eng.After(at, func() {
					if err := schedd.ForceCompact(); err != nil {
						t.Fatalf("compact at %v: %v", at, err)
					}
					if got, want := replayedQueue(t, schedd.Journal()), queueSummary(schedd); got != want {
						t.Fatalf("journal compacted at %v replays to\n%s\nlive queue\n%s", at, got, want)
					}
				})
			}
		}
		runUntilDone(t, eng, schedd, 24*time.Hour)
		if crash {
			before := queueSummary(schedd)
			schedd.Crash()
			if err := schedd.Recover(nil); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if after := queueSummary(schedd); after != before {
				t.Fatalf("recovered queue\n%s\ndiffers from the pre-crash queue\n%s", after, before)
			}
		}
		for i := 18; i < 30; i++ {
			submitJavaJob(schedd, waveProgram(i))
		}
		runUntilDone(t, eng, schedd, 24*time.Hour)
		return schedd, queueSummary(schedd)
	}

	crashed, got := run(true)
	if crashed.Journal().Compactions() < 3 || crashed.Recoveries != 1 {
		t.Fatalf("compactions = %d, recoveries = %d: want at least 3 and 1",
			crashed.Journal().Compactions(), crashed.Recoveries)
	}
	_, want := run(false)
	if got != want {
		t.Errorf("compacted-and-recovered queue\n%s\ndiffers from the uncrashed twin's\n%s", got, want)
	}
	if replayed := replayedQueue(t, crashed.Journal()); replayed != got {
		t.Errorf("final journal replays to\n%s\nlive queue\n%s", replayed, got)
	}
}

// TestJournalAppendAllocs pins the schedd's steady-state write-ahead
// path: encoding a match, an exec, and a final record into the batch
// buffer and committing the batch allocates nothing per commit.  The
// only allocation left is a fresh 64 KiB journal chunk every few
// hundred records, which AllocsPerRun's per-run average rounds away.
// The commit event is marked armed by hand: scheduling it is the
// engine's cost, not the journal's.
func TestJournalAppendAllocs(t *testing.T) {
	_, _, schedd, _, _ := testPool(t, DefaultParams(), goodMachine("m1"))
	for i := 0; i < 128; i++ {
		submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	}
	if err := schedd.ForceCompact(); err != nil {
		t.Fatal(err)
	}
	f := jobFinalMsg{Job: 7, Machine: "m1", CPU: time.Minute,
		Reported: scope.Result{Status: scope.StatusExited},
		True:     scope.Result{Status: scope.StatusExited}}
	at := sim.Time(90 * time.Second)
	appends := schedd.Journal().Appends()
	got := testing.AllocsPerRun(100, func() {
		schedd.commitArmed = true
		schedd.journalAppend(recMatch(schedd.walBuf, 7, at, "m1"))
		schedd.journalAppend(recExec(schedd.walBuf, 7, at, "m1"))
		schedd.journalAppend(recFinal(schedd.walBuf, f, at))
		schedd.commitWAL(schedd.epoch)
	})
	if got != 0 {
		t.Errorf("journalAppend+commitWAL of match, exec, final: %.1f allocs per commit, want 0", got)
	}
	if n := schedd.Journal().Appends() - appends; n != 3*101 {
		t.Fatalf("appended %d records, want %d: the batches must reach the journal", n, 3*101)
	}
	if schedd.Journal().Compactions() != 1 {
		t.Fatalf("compactions = %d: the pinned window must not compact", schedd.Journal().Compactions())
	}
}

// TestTornTailCutOnRecovery pins that recovery cuts a torn tail off the
// journal.  Records appended after the recovery must replay on the
// next one: a job that completed after a torn-tail recovery is still
// completed after a second crash, not back to idle.
func TestTornTailCutOnRecovery(t *testing.T) {
	eng, _, schedd, _, _ := testPool(t, DefaultParams(), goodMachine("m1"), goodMachine("m2"))
	id := submitJavaJob(schedd, jvm.WellBehaved(time.Minute))
	eng.After(90*time.Second, func() {
		schedd.Crash()
		wal := schedd.Journal()
		b := wal.Bytes()
		wal.SetBytes(b[:len(b)-3])
		if err := schedd.Recover(nil); err != nil {
			t.Errorf("recover: %v", err)
		}
		if r := wal.Replay(); r.Truncated != 0 {
			t.Errorf("recovered journal keeps a %d-byte torn tail", r.Truncated)
		}
	})
	runUntilDone(t, eng, schedd, 24*time.Hour)
	before := queueSummary(schedd)
	if schedd.Job(id).State != JobCompleted {
		t.Fatalf("state = %v before the second crash", schedd.Job(id).State)
	}
	schedd.Crash()
	if err := schedd.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if after := queueSummary(schedd); after != before {
		t.Errorf("second recovery lost the records written after the first:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}
