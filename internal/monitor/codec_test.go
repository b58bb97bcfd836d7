package monitor

import (
	"fmt"
	"strings"
	"testing"

	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/sim"
)

var sampleEvents = []obs.Event{
	{},
	{T: 1, Comp: "schedd", Kind: "state", Job: 4, Code: "running"},
	{T: -5, Comp: "m \"q\"", Kind: "error", Job: -1, Code: "Evicted",
		Scope: "remote-resource", EKind: "explicit",
		Detail: "owner reclaimed \"big\"\nline two", Value: 1 << 40},
	{T: 9223372036854775807, Comp: strings.Repeat("x", 100), Kind: "msg-lost"},
}

func TestEventRoundTrip(t *testing.T) {
	for _, ev := range sampleEvents {
		line := EncodeEvent(ev)
		got, err := ParseEvent(line)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", line, err)
		}
		if got != ev {
			t.Fatalf("round trip changed the event: %+v != %+v", got, ev)
		}
		if re := EncodeEvent(got); re != line {
			t.Fatalf("re-encode differs:\n%q\n%q", line, re)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := Snapshot{T: 360000, Jobs: 16, Completed: 12, Held: 1, Unfinished: 3,
		Attempts: 40, Evictions: 9, Preemptions: 2, Requeues: 11, Recoveries: 1,
		GoodputNS: 1 << 50, BadputNS: -1, Sent: 99999, Lost: 3}
	line := EncodeSnapshot(snap)
	got, err := ParseSnapshot(line)
	if err != nil {
		t.Fatalf("ParseSnapshot(%q): %v", line, err)
	}
	if got != snap {
		t.Fatalf("round trip changed the snapshot: %+v != %+v", got, snap)
	}
	if re := EncodeSnapshot(got); re != line {
		t.Fatalf("re-encode differs:\n%q\n%q", line, re)
	}
}

func TestSubAndAdminRoundTrip(t *testing.T) {
	line := EncodeSub(42)
	from, err := ParseSub(line)
	if err != nil || from != 42 {
		t.Fatalf("ParseSub(%q) = %d, %v", line, from, err)
	}
	if _, err := ParseSub(EncodeSub(-1)); err == nil {
		t.Fatal("negative subscribe index should not parse")
	}

	line = EncodeAdmin("drain", "machine with spaces \"q\"")
	verb, target, err := ParseAdmin(line)
	if err != nil || verb != "drain" || target != "machine with spaces \"q\"" {
		t.Fatalf("ParseAdmin(%q) = %q, %q, %v", line, verb, target, err)
	}

	line = EncodeAdminOK("compact", "schedd", "journal folded")
	v, tg, detail, err := ParseAdminOK(line)
	if err != nil || v != "compact" || tg != "schedd" || detail != "journal folded" {
		t.Fatalf("ParseAdminOK(%q) = %q, %q, %q, %v", line, v, tg, detail, err)
	}
}

// TestParseRejects pins the strictness of the codec: damaged CRC,
// reordered fields, non-canonical spellings, and trailing bytes are
// all errors, never guesses.
func TestParseRejects(t *testing.T) {
	good := EncodeEvent(sampleEvents[1])
	bad := []string{
		"",
		"mev",
		"bogus " + good,
		good + " extra=1",
		strings.Replace(good, " crc=", " crc=0", 1),
		strings.Replace(good, "t=1", "t=01", 1),
		strings.Replace(good, "t=1", "t=+1", 1),
		strings.Replace(good, "job=4", "value=4", 1),
		good[:len(good)-1] + "X",
		strings.ToUpper(good[:len(good)-8]) + good[len(good)-8:],
	}
	for _, s := range bad {
		if _, err := ParseEvent(s); err == nil {
			t.Errorf("ParseEvent accepted %q", s)
		}
	}
	// Flipping any single payload byte must break the CRC (or the
	// strict grammar) — the checkpoint codec's property, held here.
	for i := range good[:len(good)-9] {
		mut := []byte(good)
		mut[i] ^= 0x20
		if got, err := ParseEvent(string(mut)); err == nil && got == sampleEvents[1] {
			t.Errorf("byte flip at %d went unnoticed: %q", i, mut)
		}
	}
	if _, err := ParseSnapshot("mmet t=0 crc=00000000"); err == nil {
		t.Error("truncated snapshot should not parse")
	}
	if _, _, err := ParseAdmin(`madm verb='drain' target="m" crc=00000000`); err == nil {
		t.Error("non-Go quoting should not parse")
	}
}

func FuzzParseEvent(f *testing.F) {
	for _, ev := range sampleEvents {
		f.Add(EncodeEvent(ev))
	}
	f.Add("mev t=0")
	f.Fuzz(func(t *testing.T, s string) {
		ev, err := ParseEvent(s)
		if err != nil {
			return
		}
		// Accepted input must be the canonical encoding, byte for
		// byte: parse-then-encode is the identity on accepted lines.
		if re := EncodeEvent(ev); re != s {
			t.Fatalf("accepted non-canonical line:\n%q\n%q", s, re)
		}
	})
}

func FuzzParseSnapshot(f *testing.F) {
	f.Add(EncodeSnapshot(Snapshot{}))
	f.Add(EncodeSnapshot(Snapshot{T: 1, Jobs: 2, Lost: -3}))
	f.Fuzz(func(t *testing.T, s string) {
		snap, err := ParseSnapshot(s)
		if err != nil {
			return
		}
		if re := EncodeSnapshot(snap); re != s {
			t.Fatalf("accepted non-canonical line:\n%q\n%q", s, re)
		}
	})
}

func FuzzParseAdmin(f *testing.F) {
	f.Add(EncodeAdmin("drain", "big"))
	f.Add(EncodeAdminOK("drain", "big", "ok"))
	f.Fuzz(func(t *testing.T, s string) {
		if verb, target, err := ParseAdmin(s); err == nil {
			if re := EncodeAdmin(verb, target); re != s {
				t.Fatalf("accepted non-canonical admin line:\n%q\n%q", s, re)
			}
		}
		if v, tg, d, err := ParseAdminOK(s); err == nil {
			if re := EncodeAdminOK(v, tg, d); re != s {
				t.Fatalf("accepted non-canonical ack line:\n%q\n%q", s, re)
			}
		}
	})
}

// benchEvent is a typical streamed state event.
var benchEvent = obs.Event{T: 60e9, Comp: "shadow:schedd:4", Kind: "state", Job: 4,
	Code: "executing", Detail: "machine big"}

// TestCodecAllocs pins the stream's allocations: ParseEvent makes one
// (the CRC's byte copy), and streaming one event to one Collector two
// (the record string and the collector's parse).  With four Collectors
// the record is still encoded once: one string plus four parses.
func TestCodecAllocs(t *testing.T) {
	line := EncodeEvent(benchEvent)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseEvent(line); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("ParseEvent allocates %v times, want <= 1", n)
	}
	for _, subs := range []int{1, 4} {
		rec := obs.NewRecorder()
		mon := New(Config{Name: "mon", Clock: sim.New(1), Recorder: rec})
		for i := 0; i < subs; i++ {
			if err := mon.Subscribe(NewCollector(), 0); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, func() {
			rec.Emit(benchEvent)
			mon.Pump()
		}); n > float64(1+subs) {
			t.Errorf("streaming one event to %d collectors allocates %v times, want <= %d", subs, n, 1+subs)
		}
		if mon.Delivered() != int64(101*subs) {
			t.Fatalf("delivered %d records, want %d", mon.Delivered(), 101*subs)
		}
	}
}

// BenchmarkParseEvent is the collector's strict decode of one record.
func BenchmarkParseEvent(b *testing.B) {
	line := EncodeEvent(benchEvent)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEvent(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPump streams a 60k-event log to fresh Collector subscribers
// in one pump: the encode once, the delivery and the strict parse per
// subscriber.
func BenchmarkPump(b *testing.B) {
	const n = 60_000
	rec := obs.NewRecorder()
	for i := 0; i < n; i++ {
		ev := benchEvent
		ev.T, ev.Job = int64(i)*1e9, int64(i%1024)
		rec.Emit(ev)
	}
	for _, subs := range []int{1, 4} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mon := New(Config{Name: "mon", Clock: sim.New(1), Recorder: rec})
				for k := 0; k < subs; k++ {
					if err := mon.Subscribe(NewCollector(), 0); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				mon.Pump()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
		})
	}
}
