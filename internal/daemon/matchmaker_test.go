package daemon

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/sim"
)

// testMachineAd builds a plain machine ad for direct-drive tests.
func testMachineAd(name string, mem int64, hasJava bool) *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Machine", name)
	ad.SetInt("Memory", mem)
	ad.SetBool("HasJava", hasJava)
	ad.SetString("OpSys", "LINUX")
	return ad
}

// directMatchmaker builds a matchmaker whose periodic cycle never
// fires inside the test window, so tests drive Negotiate explicitly.
func directMatchmaker(seed int64, params Params) (*sim.Engine, *Matchmaker) {
	eng := sim.New(seed)
	bus := sim.NewBus(eng, 0)
	params.NegotiationInterval = 1000 * time.Hour
	m := NewMatchmaker(bus, params)
	bus.Register("schedd", sim.ActorFunc(func(sim.Message) {}))
	return eng, m
}

// TestMachineAdExpiryLeavesIndex checks that a silent machine vanishes
// from the machine map AND from the incremental attribute index, and
// that the expiry is counted.
func TestMachineAdExpiryLeavesIndex(t *testing.T) {
	params := DefaultParams()
	params.MachineAdLifetime = 2 * time.Minute
	eng, m := directMatchmaker(1, params)

	for i := 0; i < 4; i++ {
		m.AdvertiseMachine(fmt.Sprintf("m%d", i), testMachineAd(fmt.Sprintf("m%d", i), 1024, true))
	}
	if m.MachineCount() != 4 {
		t.Fatalf("MachineCount=%d want 4", m.MachineCount())
	}
	idx := m.IndexedMachines()
	if idx == 0 {
		t.Fatal("constant attributes should be indexed")
	}

	// One machine refreshes later; the other three go silent.
	eng.RunFor(time.Minute)
	m.AdvertiseMachine("m0", testMachineAd("m0", 1024, true))
	eng.RunFor(90 * time.Second) // past the original ads' lifetime
	m.Negotiate()

	if m.MachineCount() != 1 {
		t.Errorf("MachineCount=%d want 1 after expiry", m.MachineCount())
	}
	if m.AdsExpired != 3 {
		t.Errorf("AdsExpired=%d want 3", m.AdsExpired)
	}
	if got := m.IndexedMachines(); got != idx/4 {
		t.Errorf("IndexedMachines=%d want %d: expired entries left in the index", got, idx/4)
	}

	eng.RunFor(2 * time.Hour)
	m.Negotiate()
	if m.MachineCount() != 0 || m.IndexedMachines() != 0 {
		t.Errorf("after full expiry: machines=%d indexed=%d want 0/0",
			m.MachineCount(), m.IndexedMachines())
	}
	if m.AdsExpired != 4 {
		t.Errorf("AdsExpired=%d want 4", m.AdsExpired)
	}
}

// TestReadvertiseUpdatesIndex checks that a machine whose ad changes
// is re-indexed under its new constants: a job needing Java stops
// matching a machine that re-advertises without it.
func TestReadvertiseUpdatesIndex(t *testing.T) {
	_, m := directMatchmaker(1, DefaultParams())
	m.AdvertiseMachine("m0", testMachineAd("m0", 1024, true))
	idx := m.IndexedMachines()

	m.AdvertiseJob("schedd", 1, NewJavaJobAd("alice", 128))
	m.Negotiate()
	if m.MatchesMade != 1 {
		t.Fatalf("MatchesMade=%d want 1", m.MatchesMade)
	}

	// The machine re-advertises with Java gone; same index footprint,
	// different bucket.
	m.AdvertiseMachine("m0", testMachineAd("m0", 1024, false))
	if got := m.IndexedMachines(); got != idx {
		t.Errorf("IndexedMachines=%d want %d after re-advertise", got, idx)
	}
	m.AdvertiseJob("schedd", 2, NewJavaJobAd("alice", 128))
	m.Negotiate()
	if m.MatchesMade != 1 {
		t.Errorf("MatchesMade=%d want 1: job matched a machine that lost Java", m.MatchesMade)
	}
	if m.PendingJobs() != 1 {
		t.Errorf("PendingJobs=%d want 1", m.PendingJobs())
	}
}

// TestNegativeZeroJoinsZeroBucket checks that a machine advertising
// the constant -0.0 is offered to a job requiring target.Slots == 0:
// ClassAd == calls the two zeros equal, so the equality index must put
// them in one bucket.
func TestNegativeZeroJoinsZeroBucket(t *testing.T) {
	_, m := directMatchmaker(1, DefaultParams())
	ad := testMachineAd("m0", 1024, true)
	ad.SetReal("Slots", math.Copysign(0, -1))
	m.AdvertiseMachine("m0", ad)

	job := classad.NewAd()
	job.MustSetExpr("Requirements", "target.Slots == 0")
	if !classad.Match(job, ad) {
		t.Fatal("baseline: full evaluation must accept -0.0 == 0")
	}
	m.AdvertiseJob("schedd", 1, job)
	m.Negotiate()
	if m.MatchesMade != 1 {
		t.Errorf("MatchesMade=%d want 1: the index hid the -0.0 machine", m.MatchesMade)
	}
}

// TestReadvertiseClearsProvisionalMatch checks that a machine handed
// out in one cycle becomes visible again when its next ad arrives.
func TestReadvertiseClearsProvisionalMatch(t *testing.T) {
	_, m := directMatchmaker(1, DefaultParams())
	ad := testMachineAd("m0", 1024, true)
	m.AdvertiseMachine("m0", ad)
	m.AdvertiseJob("schedd", 1, NewJavaJobAd("alice", 128))
	m.AdvertiseJob("schedd", 2, NewJavaJobAd("alice", 128))
	m.Negotiate()
	if m.MatchesMade != 1 {
		t.Fatalf("MatchesMade=%d want 1 (machine is provisionally taken)", m.MatchesMade)
	}
	m.Negotiate()
	if m.MatchesMade != 1 {
		t.Fatalf("matched flag ignored: second cycle re-matched a taken machine")
	}
	m.AdvertiseMachine("m0", ad) // same ad object: the cheap refresh path
	m.Negotiate()
	if m.MatchesMade != 2 {
		t.Errorf("MatchesMade=%d want 2 after the machine re-advertised", m.MatchesMade)
	}
}

// TestNegotiateSteadyStateAllocFree pins the allocation-lean core
// claim: a cycle that matches nothing allocates nothing.
func TestNegotiateSteadyStateAllocFree(t *testing.T) {
	_, m := directMatchmaker(1, DefaultParams())
	for i := 0; i < 32; i++ {
		m.AdvertiseMachine(fmt.Sprintf("m%02d", i), testMachineAd(fmt.Sprintf("m%02d", i), 512, i%4 != 0))
	}
	for i := 0; i < 16; i++ {
		// Unsatisfiable: no machine has this much memory.
		m.AdvertiseJob("schedd", JobID(i+1), NewJavaJobAd(fmt.Sprintf("u%d", i%3), 1<<30))
	}
	m.Negotiate() // warm the scratch slices
	allocs := testing.AllocsPerRun(100, m.Negotiate)
	if allocs > 0 {
		t.Errorf("steady-state negotiate allocated %.1f objects per run, want 0", allocs)
	}
}
