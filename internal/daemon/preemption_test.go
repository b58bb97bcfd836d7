package daemon

import (
	"testing"
	"time"

	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/sim"
)

// submitRanked submits a Standard Universe job whose Rank is the given
// constant expression, so tests can order jobs against each other
// independent of machine attributes.
func submitRanked(s *Schedd, d time.Duration, rank string) JobID {
	ad := NewStandardJobAd("u", 128)
	ad.MustSetExpr("Rank", rank)
	s.SubmitFS.WriteFile("/home/u/a.out", []byte("relinked binary"))
	return s.Submit(&Job{
		Owner:      "u",
		Universe:   "standard",
		Ad:         ad,
		Program:    jvm.WellBehaved(d),
		Executable: "/home/u/a.out",
	})
}

// TestRankPreemptionTransfersClaim: a higher-Rank job arrives while a
// lower-Rank job holds the pool's only machine.  The incumbent is
// vacated within the grace window — shipping a final checkpoint — the
// claim transfers without ever being released, and the preempted job
// escapes as a remote-resource error scoped to the claim: it requeues,
// resumes from its checkpoint, and completes with no blame anywhere.
func TestRankPreemptionTransfersClaim(t *testing.T) {
	params := DefaultParams()
	params.Preemption = true
	params.CheckpointInterval = 10 * time.Minute
	only := MachineConfig{Name: "only", Memory: 4096, AdvertiseJava: true}
	eng, _, schedd, _, startds := testPool(t, params, only)

	low := submitRanked(schedd, 2*time.Hour, "1")
	var high JobID
	eng.After(45*time.Minute, func() {
		high = submitRanked(schedd, 30*time.Minute, "2")
	})
	runUntilDone(t, eng, schedd, 24*time.Hour)

	hj := schedd.Job(high)
	if hj.State != JobCompleted {
		t.Fatalf("challenger state = %v, err = %v", hj.State, hj.FinalErr)
	}
	if len(hj.Attempts) != 1 {
		t.Errorf("challenger attempts = %d, want 1 (it preempted, it never waited)", len(hj.Attempts))
	}
	lj := schedd.Job(low)
	if lj.State != JobCompleted {
		t.Fatalf("incumbent state = %v, err = %v", lj.State, lj.FinalErr)
	}
	if len(lj.Attempts) != 2 {
		t.Fatalf("incumbent attempts = %d, want 2", len(lj.Attempts))
	}
	first := lj.Attempts[0]
	if !first.Evicted || !first.Preempted {
		t.Errorf("first attempt evicted=%v preempted=%v, want true/true", first.Evicted, first.Preempted)
	}
	if startds[0].Preemptions != 1 {
		t.Errorf("preemptions = %d", startds[0].Preemptions)
	}
	// The clean vacate shipped a final checkpoint at ~45 min, so the
	// resumed attempt runs only the remainder of the 2h job.
	resumed := lj.LastAttempt().CPU
	if resumed > 80*time.Minute || resumed < 70*time.Minute {
		t.Errorf("resumed attempt ran %v, want ~75m", resumed)
	}
	if !containsSeq(eventKinds(lj), EventSubmitted, EventPreempted, EventCompleted) {
		t.Errorf("incumbent events = %v", eventKinds(lj))
	}
	// Preemption is policy, not failure: no blame on the machine.
	if schedd.FailureCount("only") != 0 {
		t.Errorf("preemption blamed the machine: %d", schedd.FailureCount("only"))
	}
}

// TestPreemptionOffIsInert: with Params.Preemption false (the
// default), a higher-Rank challenger waits its turn — the historic
// behavior every pre-preemption trace pins.
func TestPreemptionOffIsInert(t *testing.T) {
	params := DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	only := MachineConfig{Name: "only", Memory: 4096, AdvertiseJava: true}
	eng, _, schedd, _, startds := testPool(t, params, only)

	low := submitRanked(schedd, 2*time.Hour, "1")
	var high JobID
	eng.After(45*time.Minute, func() {
		high = submitRanked(schedd, 30*time.Minute, "2")
	})
	runUntilDone(t, eng, schedd, 24*time.Hour)

	if startds[0].Preemptions != 0 {
		t.Errorf("preemptions = %d with Preemption off", startds[0].Preemptions)
	}
	lj := schedd.Job(low)
	if lj.State != JobCompleted || len(lj.Attempts) != 1 {
		t.Fatalf("incumbent state = %v attempts = %d, want one uninterrupted run",
			lj.State, len(lj.Attempts))
	}
	hj := schedd.Job(high)
	if hj.State != JobCompleted {
		t.Fatalf("challenger state = %v", hj.State)
	}
	// The challenger started only after the incumbent's 2h finished.
	if hj.LastAttempt().Start < lj.Finished {
		t.Errorf("challenger started %v, before the incumbent finished at %v",
			hj.LastAttempt().Start, lj.Finished)
	}
}

// TestPreemptGraceExpiryForfeitsToCheckpoint: a vacate window too
// short to ship the final checkpoint forfeits the progress since the
// last periodic one — rework is bounded by the checkpoint interval,
// never the whole attempt.
func TestPreemptGraceExpiryForfeitsToCheckpoint(t *testing.T) {
	params := DefaultParams()
	params.Preemption = true
	params.CheckpointInterval = 10 * time.Minute
	only := MachineConfig{Name: "only", Memory: 4096, AdvertiseJava: true}
	eng, _, schedd, _, startds := testPool(t, params, only)
	startds[0].SetVacateGrace(time.Millisecond) // expires before the ~2s ship

	low := submitRanked(schedd, 2*time.Hour, "1")
	eng.After(45*time.Minute, func() {
		submitRanked(schedd, 30*time.Minute, "2")
	})
	runUntilDone(t, eng, schedd, 24*time.Hour)

	lj := schedd.Job(low)
	if lj.State != JobCompleted || len(lj.Attempts) != 2 {
		t.Fatalf("incumbent state = %v attempts = %d", lj.State, len(lj.Attempts))
	}
	// The final checkpoint was forfeited; the resume falls back to the
	// last periodic commit (40 min), not the vacate instant (45 min).
	resumed := lj.LastAttempt().CPU
	if resumed < 78*time.Minute || resumed > 85*time.Minute {
		t.Errorf("resumed attempt ran %v, want ~80m (periodic checkpoint, not final)", resumed)
	}
	if startds[0].Preemptions != 1 {
		t.Errorf("preemptions = %d", startds[0].Preemptions)
	}
}

// TestCheckpointDurableAcrossScheddCrash: periodic checkpoints are
// journaled through the schedd's WAL, so a schedd crash loses neither
// the queue nor the progress — the rebuilt job resumes from its last
// committed checkpoint on whatever machine matches next.
func TestCheckpointDurableAcrossScheddCrash(t *testing.T) {
	params := DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	first := MachineConfig{Name: "first", Memory: 4096, AdvertiseJava: true}
	second := MachineConfig{Name: "second", Memory: 1024, AdvertiseJava: true}
	eng, _, schedd, _, _ := testPool(t, params, first, second)

	id := submitStandard(schedd, 90*time.Minute)
	eng.After(35*time.Minute, func() { schedd.Crash() })
	eng.After(40*time.Minute, func() {
		if err := schedd.Recover(nil); err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	runUntilDone(t, eng, schedd, 24*time.Hour)

	j := schedd.Job(id)
	if j.State != JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	// Three checkpoints (10, 20, 30 min) were committed and journaled
	// before the crash; the replayed queue must still hold them.
	if j.CheckpointCPU < 30*time.Minute {
		t.Errorf("checkpoint after recovery = %v, want >= 30m", j.CheckpointCPU)
	}
	last := j.LastAttempt()
	if last.CPU > 65*time.Minute {
		t.Errorf("resume ran %v of a 90m job — the crash lost the journaled checkpoints", last.CPU)
	}
	// The event log died with the process (replay rebuilds state, not
	// telemetry): the rebuilt log opens with the recovery, and the
	// resumed attempt commits fresh checkpoints.
	if !containsSeq(eventKinds(j), EventRecovered, EventCheckpointed, EventCompleted) {
		t.Errorf("events = %v", eventKinds(j))
	}
}

// TestCorruptCheckpointFallsBack: a checkpoint damaged in transit is
// rejected by the shadow's CRC check — a network-scope error that
// invalidates the record, not the job — and an eviction then resumes
// from the last intact commit.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	params := DefaultParams()
	params.CheckpointInterval = 10 * time.Minute
	first := MachineConfig{Name: "first", Memory: 4096, AdvertiseJava: true}
	second := MachineConfig{Name: "second", Memory: 1024, AdvertiseJava: true}
	eng, bus, schedd, _, startds := testPool(t, params, first, second)

	id := submitStandard(schedd, 2*time.Hour)
	// Damage every periodic checkpoint sent after t=25m: the 30m and
	// 40m commits are rejected by the shadow's CRC check.
	var damage bool
	eng.After(25*time.Minute, func() { damage = true })
	bus.SetFaultFunc(func(m sim.Message) sim.Fault {
		if damage && m.Kind == kindCheckpoint {
			return sim.Fault{Mutate: func(body any) any { return CorruptCheckpoint(body, 9) }}
		}
		return sim.Fault{}
	})
	eng.After(45*time.Minute, func() { startds[0].Evict() })
	runUntilDone(t, eng, schedd, 24*time.Hour)

	j := schedd.Job(id)
	if j.State != JobCompleted {
		t.Fatalf("state = %v", j.State)
	}
	// Eviction ships a final (intact, machine-local) checkpoint at
	// 45m; only the in-transit periodic records were damaged, so the
	// job still resumes from 45m.  What the corrupt records must NOT
	// do is poison the committed state: CheckpointCPU advances
	// monotonically through valid records only.
	if j.CheckpointCPU < 40*time.Minute {
		t.Errorf("checkpoint = %v", j.CheckpointCPU)
	}
}

// TestClaimWithoutPreemptionBuildsNoClaimedAd pins the claim path's
// ad reuse: with preemption off nothing ever advertises a claimed
// machine, so a full claim → run → release cycle must leave the
// claimed-state adCache slots empty — the incumbent's Rank is scored
// against the unclaimed ad the job was matched on.
func TestClaimWithoutPreemptionBuildsNoClaimedAd(t *testing.T) {
	eng, _, schedd, _, startds := testPool(t, DefaultParams(), goodMachine("m1"))
	id := submitJavaJob(schedd, jvm.WellBehaved(5*time.Minute))
	runUntilDone(t, eng, schedd, 2*time.Hour)

	if j := schedd.Job(id); j.State != JobCompleted {
		t.Fatalf("state = %v, err = %v", j.State, j.FinalErr)
	}
	s := startds[0]
	if s.ClaimsGranted != 1 || s.State() != StartdUnclaimed {
		t.Fatalf("claims granted = %d, state = %v; want one released claim", s.ClaimsGranted, s.State())
	}
	for key, ad := range s.adCache {
		if key&1 != 0 && ad != nil {
			t.Errorf("adCache[%d] holds a claimed-state ad", key)
		}
	}
	if s.adCache[2] == nil {
		t.Error("the unclaimed Java ad was never cached")
	}
}
