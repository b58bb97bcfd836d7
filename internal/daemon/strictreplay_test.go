package daemon

import (
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/sim"
)

// TestStrictReplay pins replay to the shared strict reader: journal
// records, snapshot lines, and JVM program lines spelled any way but
// the encoders' canonical one are refused, even where a lenient
// key=value scan would have read the same values.
func TestStrictReplay(t *testing.T) {
	final := string(recFinal(nil, sampleFinal(false), 5))
	entries := []struct{ why, line string }{
		{"reordered fields", `op=exec at=5 id=7 machine="m"`},
		{"duplicated key", `op=ckpt id=7 at=5 cpu=1 cpu=2`},
		{"signed int", `op=relax id=+7 at=5`},
		{"leading zeros", `op=relax id=007 at=5`},
		{"non-canonical bool", strings.Replace(final, "evicted=false", "evicted=T", 1)},
		{"flag written false", strings.Replace(final, "evicted=false", "evicted=false pre=false", 1)},
		{"non-canonical quoting", `op=exec id=7 at=5 machine="\x6d"`},
	}
	for _, c := range entries {
		s := NewSchedd(sim.NewBus(sim.New(1), time.Millisecond), DefaultParams(), "schedd")
		if err := s.applyEntry(recSubmit(nil, sampleJob())); err != nil {
			t.Fatalf("canonical submit record refused: %v", err)
		}
		if err := s.applyEntry([]byte(c.line)); err == nil {
			t.Errorf("%s: journal record %q replayed", c.why, c.line)
		}
	}

	header := "schedd nextID=7 requeues=0 recoveries=0\n"
	snapshots := []struct{ why, data string }{
		{"signed int", "schedd nextID=+7 requeues=0 recoveries=0\n"},
		{"missing field", header + `failure machine="m" count=1` + "\n"},
		{"reordered fields", header + `failure count=1 machine="m" last=0` + "\n"},
	}
	for _, c := range snapshots {
		s := NewSchedd(sim.NewBus(sim.New(1), time.Millisecond), DefaultParams(), "schedd")
		if err := s.applySnapshot([]byte(c.data)); err == nil {
			t.Errorf("%s: snapshot %q replayed", c.why, c.data)
		}
	}

	programs := []struct{ why, src string }{
		{"non-canonical bool", "program class=\"Main\" corrupt=T\n"},
		{"reordered fields", "program corrupt=false class=\"Main\"\n"},
		{"duplicated key", "program class=\"Main\" corrupt=false\ncompute dur=5 dur=6\n"},
		{"signed int", "program class=\"Main\" corrupt=false\nexit code=+1\n"},
		{"non-canonical quoting", "program class=\"\\x4dain\" corrupt=false\n"},
		{"no final newline", "program class=\"Main\" corrupt=false"},
	}
	for _, c := range programs {
		if p, err := jvm.ParseProgram(c.src); err == nil {
			t.Errorf("%s: program %q parsed as %+v", c.why, c.src, p)
		}
	}
}
