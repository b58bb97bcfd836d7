package daemon

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// recordSample is one named record line of the byte table.
type recordSample struct {
	name string
	line string
}

// sampleJob is a job whose identity fields exercise the quoting
// rules: spaces, quotes, a newline, and non-ASCII text.
func sampleJob() *Job {
	ad := classad.NewAd()
	ad.SetString("Owner", "alice \"a\"")
	ad.MustSetExpr("Requirements", "Memory >= 64")
	return &Job{
		ID: 7, Owner: "alice \"a\"", Universe: "java",
		Executable: "Main class\nvé", Ad: ad, Submitted: 5,
		Program: &jvm.Program{Class: "Main", Steps: []jvm.Step{
			jvm.Compute{Duration: time.Minute},
			jvm.IOWrite{Path: "/out", Offset: 3, Data: []byte("x\"y")},
		}},
	}
}

func sampleFinal(pre bool) jobFinalMsg {
	lost := scope.New(scope.ScopeNetwork, "Silent", "no word from %s", "m1")
	lost.Kind = scope.KindEscaping
	return jobFinalMsg{
		Job: 7, Machine: "m1 \"big\"", CPU: 90 * time.Second,
		CheckpointCPU: 60 * time.Second, Evicted: pre, Preempted: pre,
		LostContact: lost.WithOrigin("shadow"),
		Reported:    scope.Result{Status: scope.StatusExited, ExitCode: 3},
		True: scope.Result{Status: scope.StatusException, Exception: "E",
			Scope: scope.ScopeProgram, Message: "m \"x\"\nline"},
	}
}

// journalRecordSamples renders one write-ahead-journal record of
// every op and one snapshot line of every kind.
func journalRecordSamples() []recordSample {
	at := sim.Time(42 * time.Second)
	s := []recordSample{
		{"wal-submit", string(recSubmit(nil, sampleJob()))},
		{"wal-match", string(recMatch(nil, 7, at, "m1"))},
		{"wal-exec", string(recExec(nil, 7, at, "m \"1\""))},
		{"wal-flock", string(recFlock(nil, 7, at, 2, "mm-p2"))},
		{"wal-flock-home", string(recFlock(nil, 7, at, 0, ""))},
		{"wal-ckpt", string(recCkpt(nil, 7, at, 30*time.Minute))},
		{"wal-final", string(recFinal(nil, sampleFinal(false), at))},
		{"wal-final-pre", string(recFinal(nil, sampleFinal(true), at))},
		{"wal-claim-timeout", string(recEvent(nil, "claim-timeout", 7, at))},
		{"wal-claim-denied", string(recEvent(nil, "claim-denied", 7, at))},
		{"wal-relax", string(recEvent(nil, "relax", 7, at))},
		{"wal-recover", string(recEvent(nil, "recover", 7, at))},
	}

	j := sampleJob()
	j.State, j.CheckpointCPU, j.avoidanceRelaxed, j.Finished = JobHeld, time.Minute, true, 99
	j.FinalErr = shadowDiedErr("schedd")
	f := sampleFinal(true)
	j.Attempts = []Attempt{
		{Machine: "m0", Start: 1, End: 2, CPU: time.Second, FetchError: shadowDiedErr("schedd")},
		{Machine: f.Machine, Start: 3, End: 4, CPU: f.CPU, Evicted: true, Preempted: true,
			LostContact: f.LostContact, Reported: f.Reported, True: f.True},
	}
	sd := &Schedd{
		jobs:            map[JobID]*Job{7: j},
		order:           []JobID{7},
		nextID:          7,
		Requeues:        3,
		Recoveries:      1,
		machineFailures: map[string]failureRecord{"m \"0\"": {count: 2, last: 90}},
		Reports: []UserReport{{Job: 7, Disposition: scope.DispositionHold,
			Result: f.True, Err: j.FinalErr, IncidentalLeak: true}},
	}
	names := []string{"snapshot-schedd", "snapshot-failure", "snapshot-job",
		"snapshot-attempt", "snapshot-attempt-pre", "snapshot-report"}
	lines := strings.Split(strings.TrimSuffix(snapshotString(sd), "\n"), "\n")
	for i, line := range lines {
		s = append(s, recordSample{names[i], line})
	}
	return s
}

// snapshotString is the schedd's snapshot payload as one string.
func snapshotString(s *Schedd) string {
	var b strings.Builder
	s.writeSnapshot(&b)
	return b.String()
}

// readRecordTable loads the committed record-byte table: one
// `name "go-quoted line"` entry per line, captured from the encoders
// before they moved onto package record.
func readRecordTable(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, quoted, ok := strings.Cut(sc.Text(), " ")
		line, err := strconv.Unquote(quoted)
		if !ok || err != nil {
			t.Fatalf("bad table entry %q", sc.Text())
		}
		table[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return table
}

// TestJournalRecordBytes pins the journal and snapshot encoders to the
// committed byte table: recovery replays these exact bytes, so any
// drift would strand a journal written before the change.  The table's
// journal records must also replay, and its snapshot lines replay and
// re-encode to themselves.
func TestJournalRecordBytes(t *testing.T) {
	table := readRecordTable(t, "../record/testdata/records.txt")
	var snap strings.Builder
	for _, s := range journalRecordSamples() {
		want, ok := table[s.name]
		if !ok {
			t.Errorf("%s: missing from the table", s.name)
		} else if s.line != want {
			t.Errorf("%s:\n got %q\nwant %q", s.name, s.line, want)
		}
		if strings.HasPrefix(s.name, "snapshot-") {
			snap.WriteString(want + "\n")
		}
	}
	// Every journal op replays, in table order, onto the submitted job.
	wal := NewSchedd(sim.NewBus(sim.New(1), time.Millisecond), DefaultParams(), "schedd")
	for _, s := range journalRecordSamples() {
		if strings.HasPrefix(s.name, "wal-") {
			if err := wal.applyEntry([]byte(table[s.name])); err != nil {
				t.Errorf("%s: replay: %v", s.name, err)
			}
		}
	}
	sd := NewSchedd(sim.NewBus(sim.New(1), time.Millisecond), DefaultParams(), "schedd")
	if err := sd.applySnapshot([]byte(snap.String())); err != nil {
		t.Fatalf("replay of the table's snapshot: %v", err)
	}
	if got := snapshotString(sd); got != snap.String() {
		t.Errorf("snapshot replay re-encodes as\n%q\nwant\n%q", got, snap.String())
	}
}
