package record_test

import (
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/errscope/grid/internal/daemon"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/monitor"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/record"
)

// encodeAll renders the test record: every field kind, then the seal.
func encodeAll(n int64, s string, b, f bool, bare string) string {
	out := append([]byte(nil), "rec"...)
	out = record.AppendInt(out, "n", n)
	out = record.AppendStr(out, "s", s)
	out = record.AppendBool(out, "b", b)
	out = record.AppendFlag(out, "f", f)
	out = record.AppendBare(out, "e", bare)
	return string(record.Seal(out))
}

type decoded struct {
	n    int64
	s    string
	b, f bool
	bare string
}

func parseAll(line string) (decoded, error) {
	r := record.NewReader("rec", line)
	r.Expect("rec")
	d := decoded{n: r.Int("n"), s: r.Str("s"), b: r.Bool("b"), f: r.Flag("f"), bare: r.Bare("e")}
	r.Sealed()
	return d, r.Done()
}

// seal recomputes a trailer so a test's damage is the field's, not the
// checksum's.
func seal(payload string) string {
	return fmt.Sprintf("%s crc=%08x", payload, crc32.ChecksumIEEE([]byte(payload)))
}

func TestRoundTrip(t *testing.T) {
	for _, d := range []decoded{
		{bare: "0"},
		{n: -1 << 62, s: "with space \"q\"\n\ttab é \x01", b: true, f: true, bare: "idle"},
		{n: 1 << 62, s: "\xff invalid utf-8", bare: "x"},
	} {
		line := encodeAll(d.n, d.s, d.b, d.f, d.bare)
		got, err := parseAll(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if got != d {
			t.Fatalf("round trip of %q = %+v, want %+v", line, got, d)
		}
	}
}

// TestSealedForm pins the trailer: the CRC-32 (IEEE) of every byte
// before it, as eight lowercase hex digits.
func TestSealedForm(t *testing.T) {
	got := string(record.Seal([]byte("ckpt job=7 cpu=1800000000000")))
	if want := "ckpt job=7 cpu=1800000000000 crc=49c55efe"; got != want {
		t.Fatalf("Seal = %q, want %q", got, want)
	}
}

func TestReaderRefuses(t *testing.T) {
	good := "rec n=5 s=\"x\" b=true f=true e=idle"
	if _, err := parseAll(seal(good)); err != nil {
		t.Fatalf("canonical line refused: %v", err)
	}
	bad := []string{
		"",
		"rec",
		"other n=5 s=\"x\" b=true e=idle",
		"rec s=\"x\" n=5 b=true e=idle",                    // reordered
		"rec n=5 n=5 s=\"x\" b=true e=idle",                // duplicated key
		"rec n=+5 s=\"x\" b=true e=idle",                   // sign
		"rec n=05 s=\"x\" b=true e=idle",                   // leading zero
		"rec n=-0 s=\"x\" b=true e=idle",                   // negative zero
		"rec n=5.0 s=\"x\" b=true e=idle",                  // not an int
		"rec n=5 s=\"x\" b=T e=idle",                       // non-canonical bool
		"rec n=5 s=\"x\" b=true f=false e=idle",            // a flag is never false
		"rec n=5 s=\"x\" b=true f=truee e=idle",            // nor anything else
		"rec n=5 s=\"x\" b=true e=",                        // empty bare
		"rec n=5 s=\"\\x78\" b=true e=idle",                // escaped where Quote is literal
		"rec n=5 s=\"\t\" b=true e=idle",                   // literal where Quote escapes
		"rec n=5 s=`x` b=true e=idle",                      // backquoted
		"rec n=5 s=\"x\"b=true e=idle",                     // no separator
		"rec n=5 s=\"x b=true e=idle",                      // unterminated quote
		"rec  n=5 s=\"x\" b=true e=idle",                   // double space
		"rec n=5 s=\"x\" b=true e=idle x=1",                // trailing field
		"rec n=5 s=\"x\" b=true e=idle ",                   // trailing space
		"rec n=99999999999999999999 s=\"x\" b=true e=idle", // overflow
	}
	for _, payload := range bad {
		if d, err := parseAll(seal(payload)); err == nil {
			t.Errorf("accepted %q as %+v", payload, d)
		}
	}
	for _, line := range []string{
		good,                                    // no trailer
		good + " crc=",                          // empty trailer
		good + " crc=0000000",                   // short
		good + " crc=0000000g",                  // not hex
		strings.ToUpper(seal(good)[len(good):]), // uppercase hex
		seal(good) + " ",                        // trailing bytes
		seal(good)[:len(seal(good))-1] + "0",    // mismatch (or a changed digit)
	} {
		if _, err := parseAll(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
	// No strict prefix of a sealed record parses.
	full := seal(good)
	for i := range full {
		if _, err := parseAll(full[:i]); err == nil {
			t.Errorf("prefix %q parsed", full[:i])
		}
	}
}

// TestReaderErrorForm pins the error text shapes callers and golden
// traces rely on: `<kind>: field <key>: <cause>` for a value that does
// not parse, `<kind>: expected <key>= at "<rest>"` for a missing field.
func TestReaderErrorForm(t *testing.T) {
	r := record.NewReader("ckpt", "ckpt job=\x11 cpu=0 crc=00000000")
	r.Expect("ckpt")
	r.Int("job")
	r.Int("cpu") // sticky: reports the first failure, not this one
	err := r.Done()
	if got, want := fmt.Sprint(err), `ckpt: field job: strconv.ParseInt: parsing "\x11": invalid syntax`; got != want {
		t.Errorf("error = %s, want %s", got, want)
	}
	if !errors.Is(err, strconv.ErrSyntax) {
		t.Errorf("error %v does not wrap its cause", err)
	}
	r = record.NewReader("flock", "flock grant ")
	r.Expect("flock")
	r.Word()
	r.Int("job")
	if got, want := fmt.Sprint(r.Done()), `flock: expected job= at ""`; got != want {
		t.Errorf("error = %s, want %s", got, want)
	}
	r = record.NewReader("flock", "flock")
	r.Expect("flock")
	if r.Word(); r.Err() == nil {
		t.Error("a missing word read without error")
	}
	r = record.NewReader("x", "x n=1")
	r.Expect("x")
	r.Fail("semantic %d", 7)
	if r.Int("n"); fmt.Sprint(r.Done()) != "x: semantic 7" {
		t.Errorf("Fail error = %v", r.Done())
	}
}

// TestAppendQuoteMatchesStrconv pins the fast quoter to
// strconv.AppendQuote byte-for-byte, across the fast ASCII path, every
// escaped byte, and the non-ASCII fallback; and StrLen and
// AppendStrBytes to AppendStr.
func TestAppendQuoteMatchesStrconv(t *testing.T) {
	cases := []string{
		"", "plain", "with space", `has "quotes" inside`, `back\slash`,
		"line1\nline2", "tab\there", "cr\rhere", "mixed\n\"x\\y\"\t",
		"unicode: héllo", "control: \x01\x02", "bell\a", "del\x7f",
		"status = exited\nexit_code = 0\nend = ok\n",
	}
	for _, s := range cases {
		got := string(record.AppendQuote(nil, s))
		want := string(strconv.AppendQuote(nil, s))
		if got != want {
			t.Errorf("AppendQuote(%q) = %s, want %s", s, got, want)
		}
		if n, want := record.StrLen("key", s), len(record.AppendStr(nil, "key", s)); n != want {
			t.Errorf("StrLen(%q) = %d, want %d", s, n, want)
		}
		if got, want := record.AppendStrBytes(nil, "key", []byte(s)), record.AppendStr(nil, "key", s); string(got) != string(want) {
			t.Errorf("AppendStrBytes(%q) = %s, want %s", s, got, want)
		}
	}
}

// BenchmarkEventCodec is one streamed event's encode-and-parse cost,
// the monitor's per-event work on both ends of a session.
func BenchmarkEventCodec(b *testing.B) {
	ev := obs.Event{T: 60e9, Comp: "schedd", Kind: "state", Job: 4,
		Code: "executing", Detail: "machine big"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := monitor.ParseEvent(monitor.EncodeEvent(ev)); err != nil {
			b.Fatal(err)
		}
	}
}

// fuzzSeeds gathers one canonical record of every kind plus the damaged
// and near-miss inputs the per-codec fuzz targets started from.
func fuzzSeeds() []string {
	var seeds []string
	for _, s := range exportedRecordSamples() {
		seeds = append(seeds, s.line)
	}
	ckpt := daemon.EncodeCheckpoint(7, 30*time.Minute)
	grant := daemon.EncodeFlockMsg(daemon.FlockMsg{Op: daemon.FlockGrant, Job: 7, Level: 2, Negotiator: "mm-p2"})
	deny := daemon.EncodeFlockMsg(daemon.FlockMsg{Op: daemon.FlockDeny, Job: 7, Reason: "no live peer pool"})
	seeds = append(seeds,
		ckpt, daemon.EncodeCheckpoint(1, 0), ckpt[:12], ckpt[:len(ckpt)-1],
		"ckpt job=1 cpu=0 crc=00000000", "garbage", strings.Repeat("ckpt ", 8),
		grant, deny, grant[:12], deny[:len(deny)-1],
		"flock grant job=1 level=1 negotiator=\"m\\\"m\"", "flock deny job=0 reason=\"\"",
		strings.Repeat("flock ", 8),
		"mev t=0",
		monitor.EncodeSnapshot(monitor.Snapshot{}),
		monitor.EncodeSnapshot(monitor.Snapshot{T: 1, Jobs: 2, Lost: -3}),
		monitor.EncodeAdmin("drain", "big"),
		monitor.EncodeAdminOK("drain", "big", "ok"),
		"program class=\"Main\" corrupt=false\ncompute dur=5\n",
		"program class=\"Main\" corrupt=false",
	)
	for _, ev := range []obs.Event{
		{},
		{T: 1, Comp: "schedd", Kind: "state", Job: 4, Code: "running"},
		{T: -5, Comp: "m \"q\"", Kind: "error", Job: -1, Code: "Evicted",
			Scope: "remote-resource", EKind: "explicit",
			Detail: "owner reclaimed \"big\"\nline two", Value: 1 << 40},
		{T: 9223372036854775807, Comp: strings.Repeat("x", 100), Kind: "msg-lost"},
	} {
		seeds = append(seeds, monitor.EncodeEvent(ev))
	}
	return seeds
}

// FuzzRecord runs every exported record parser over each input and
// requires parse∘encode to be the identity on whatever a parser
// accepts: the canonicality contract of package record, checked
// through every codec built on it.  Every input is also a string
// field's value: StrLen must predict what AppendStr appends.
func FuzzRecord(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if n, want := record.StrLen("k", s), len(record.AppendStr(nil, "k", s)); n != want {
			t.Fatalf("StrLen(%q) = %d, AppendStr appends %d bytes", s, n, want)
		}
		identity := func(kind, enc string) {
			if enc != s {
				t.Fatalf("%s parser accepted %q but it re-encodes as %q", kind, s, enc)
			}
		}
		if job, cpu, err := daemon.ParseCheckpoint(s); err == nil {
			identity("checkpoint", daemon.EncodeCheckpoint(job, cpu))
		}
		if m, err := daemon.ParseFlockMsg(s); err == nil {
			identity("flock", daemon.EncodeFlockMsg(m))
		}
		if ev, err := monitor.ParseEvent(s); err == nil {
			identity("event", monitor.EncodeEvent(ev))
		}
		if m, err := monitor.ParseSnapshot(s); err == nil {
			identity("snapshot", monitor.EncodeSnapshot(m))
		}
		if from, err := monitor.ParseSub(s); err == nil {
			identity("sub", monitor.EncodeSub(from))
		}
		if verb, target, err := monitor.ParseAdmin(s); err == nil {
			identity("admin", monitor.EncodeAdmin(verb, target))
		}
		if verb, target, detail, err := monitor.ParseAdminOK(s); err == nil {
			identity("admin-ok", monitor.EncodeAdminOK(verb, target, detail))
		}
		if p, err := jvm.ParseProgram(s); err == nil {
			identity("program", jvm.EncodeProgram(p))
		}
	})
}
