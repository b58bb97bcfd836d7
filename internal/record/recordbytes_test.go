package record_test

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/monitor"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/scope"
)

type sample struct {
	name string
	line string
}

var sampleEvent = obs.Event{T: 60e9, Comp: "m \"q\"", Kind: "error", Job: 4,
	Code: "Evicted", Scope: "remote-resource", EKind: "explicit",
	Detail: "owner reclaimed \"big\"\nline two é", Value: -1 << 40}

var sampleSnapshot = monitor.Snapshot{T: 360e9, Jobs: 16, Completed: 12,
	Unexecutable: 1, Held: 1, Unfinished: 2, Attempts: 40, Evictions: 9,
	Preemptions: 2, Requeues: 11, Recoveries: 1, GoodputNS: 1 << 50,
	BadputNS: -1, Sent: 99999, Lost: 3}

// stepSamples holds one program per JVM step kind, each after a header
// that exercises the quoted class name and the image flag.
var stepSamples = []struct {
	name string
	step jvm.Step
}{
	{"compute", jvm.Compute{Duration: 90 * time.Second}},
	{"allocate", jvm.Allocate{Bytes: 64 << 20}},
	{"free", jvm.Free{Bytes: 512}},
	{"throw", jvm.Throw{Exception: "IOException", Message: "quoted \"path\"\nand é",
		Scope: scope.ScopeRemoteResource}},
	{"throw-noscope", jvm.Throw{Exception: "E", Message: ""}},
	{"exit", jvm.Exit{Code: -1}},
	{"ioread", jvm.IORead{Path: "/home/user/in file", Offset: 9, Length: 4096}},
	{"iowrite", jvm.IOWrite{Path: "/tmp/out", Offset: 0, Data: []byte("bytes\twith \"q\"\n")}},
}

// exportedRecordSamples renders one record of every kind whose encoder
// is exported: checkpoints, flock replies, monitor records, and JVM
// programs.
func exportedRecordSamples() []sample {
	s := []sample{
		{"ckpt", daemon.EncodeCheckpoint(7, 30*time.Minute)},
		{"flock-grant", daemon.EncodeFlockMsg(daemon.FlockMsg{Op: daemon.FlockGrant,
			Job: 7, Level: 2, Negotiator: "mm \"p2\""})},
		{"flock-deny", daemon.EncodeFlockMsg(daemon.FlockMsg{Op: daemon.FlockDeny,
			Job: 41, Reason: "no live peer pool"})},
		{"mev", monitor.EncodeEvent(sampleEvent)},
		{"mev-zero", monitor.EncodeEvent(obs.Event{})},
		{"mmet", monitor.EncodeSnapshot(sampleSnapshot)},
		{"msub", monitor.EncodeSub(42)},
		{"madm", monitor.EncodeAdmin("drain", "machine \"big\"")},
		{"mok", monitor.EncodeAdminOK("compact", "schedd", "journal folded\ninto a snapshot")},
		{"jvm-program", jvm.EncodeProgram(&jvm.Program{Class: "Spaced \"Main\"", ImageCorrupt: true})},
	}
	for _, st := range stepSamples {
		p := &jvm.Program{Class: "Main", Steps: []jvm.Step{st.step}}
		s = append(s, sample{"jvm-" + st.name, jvm.EncodeProgram(p)})
	}
	return s
}

func readTable(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/records.txt")
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

// TestRecordBytes pins every exported encoder to the committed byte
// table (the journal and snapshot lines are pinned by the daemon
// package's TestJournalRecordBytes against the same file): records
// cross process and pool boundaries, so a byte of drift is a protocol
// break.
func TestRecordBytes(t *testing.T) {
	table := readTable(t)
	for _, s := range exportedRecordSamples() {
		want, ok := table[s.name]
		if !ok {
			t.Errorf("%s: missing from the table", s.name)
		} else if s.line != want {
			t.Errorf("%s:\n got %q\nwant %q", s.name, s.line, want)
		}
	}
}
