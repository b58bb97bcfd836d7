package record

import (
	"fmt"
	"strconv"
	"testing"
)

// strconvStr is Str without its one-scan prefix: the strconv path
// alone, the reference the prefix must agree with.
func strconvStr(r *Reader, key string) string {
	if !r.key(key) {
		return ""
	}
	rest := r.line[r.pos:]
	raw, err := strconv.QuotedPrefix(rest)
	if err == nil && raw[0] != '"' {
		err = strconv.ErrSyntax
	}
	if err != nil {
		r.Fail("field %s: %w", key, err)
		return ""
	}
	v, _ := strconv.Unquote(raw)
	if !canonicalQuote(raw, v) {
		r.Fail("non-canonical %s=%s", key, raw)
		return ""
	}
	r.pos += len(raw)
	if r.pos < len(r.line) && r.line[r.pos] != ' ' {
		r.Fail("field %s: no space after the value at %q", key, r.line[r.pos:])
		return ""
	}
	return v
}

// TestStrMatchesStrconvPath checks that Str returns the value,
// position and error text of the strconv path for every string of up
// to three bytes over printable ASCII plus tab, 0x7f, 0x80 and 0xff,
// as a closed literal, and for every string of up to two bytes as a
// closed literal followed by a field, an unterminated literal, and a
// backquoted one.
func TestStrMatchesStrconvPath(t *testing.T) {
	alphabet := []byte{'\t', 0x7f, 0x80, 0xff}
	for c := byte(0x20); c <= 0x7e; c++ {
		alphabet = append(alphabet, c)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	check := func(lit string) {
		line := "x k=" + lit
		fast := Reader{kind: "x", line: line, pos: 1}
		ref := fast
		got, want := fast.Str("k"), strconvStr(&ref, "k")
		if got != want || fast.pos != ref.pos || errText(fast.Done()) != errText(ref.Done()) {
			t.Fatalf("Str on %q = %q at %d (%v), strconv path %q at %d (%v)",
				line, got, fast.pos, fast.Err(), want, ref.pos, ref.Err())
		}
	}
	buf := make([]byte, 0, 3)
	var walk func()
	walk = func() {
		s := string(buf)
		check(`"` + s + `"`)
		if len(buf) == 3 {
			return
		}
		check(`"` + s + `" z`)
		check(`"` + s)
		check("`" + s + "`")
		for _, c := range alphabet {
			buf = append(buf, c)
			walk()
			buf = buf[:len(buf)-1]
		}
	}
	walk()
}

// TestSealedRejectsNonCanonicalHex pins the trailer's digit check and
// its error text.
func TestSealedRejectsNonCanonicalHex(t *testing.T) {
	for _, crc := range []string{"", "0", "0000000", "000000000", "0000000A",
		"0000000g", "+0000000", "-0000000", "0x000000", " 0000000"} {
		r := NewReader("x", "x crc="+crc)
		r.Expect("x")
		r.Sealed()
		raw := crc
		if i := len(raw); i > 0 && raw[0] == ' ' {
			raw = ""
		}
		want := fmt.Sprintf("x: crc %q is not 8 lowercase hex digits", raw)
		if got := fmt.Sprint(r.Err()); got != want {
			t.Errorf("crc=%q: error %s, want %s", crc, got, want)
		}
	}
}
