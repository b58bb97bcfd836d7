// Package record is the one canonical text-record format shared by
// every record that crosses a process or pool boundary in this repo:
// checkpoints, flock replies, monitor stream records, write-ahead
// journal records and snapshot lines, and the JVM program lines a
// submit record carries.
//
// A record is one line: a head token, then `key=value` fields in a
// fixed order, each after exactly one space.  A value is a canonical
// integer, `true`/`false`, a bare token, or a strconv.Quote string.
// A sealed record ends in a CRC-32 (IEEE) trailer over every byte
// before it:
//
//	ckpt job=7 cpu=1800000000000 crc=49c55efe
//
// Canonical means parse∘encode is the identity: the Reader accepts
// exactly the bytes the Append functions produce and refuses
// everything else — reordered or duplicated keys, "+1" or "007",
// "T" for true, a quoting strconv.Quote would not emit, a missing or
// mismatched trailer, trailing bytes.  A record cut short or damaged in
// transit is therefore always an error, never a different record.
package record

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// AppendInt appends ` key=v`.
func AppendInt(b []byte, key string, v int64) []byte {
	b = appendKey(b, key)
	return strconv.AppendInt(b, v, 10)
}

// AppendStr appends ` key="v"`, quoted exactly as strconv.Quote.
func AppendStr(b []byte, key, v string) []byte {
	return AppendQuote(appendKey(b, key), v)
}

// AppendStrBytes is AppendStr for a value held in a byte slice: v is
// quoted in place, never copied into a string.  v must not overlap b's
// spare capacity.
func AppendStrBytes(b []byte, key string, v []byte) []byte {
	return AppendStr(b, key, unsafe.String(unsafe.SliceData(v), len(v)))
}

// StrLen is the number of bytes AppendStr(b, key, v) appends, computed
// without encoding: an encoder can size its buffer exactly up front.
func StrLen(key, v string) int {
	return len(key) + 2 + quotedLen(v)
}

// AppendBool appends ` key=true` or ` key=false`.
func AppendBool(b []byte, key string, v bool) []byte {
	return strconv.AppendBool(appendKey(b, key), v)
}

// AppendFlag appends ` key=true` when v is set and nothing otherwise:
// a field present only when set, read back by Reader.Flag.
func AppendFlag(b []byte, key string, v bool) []byte {
	if !v {
		return b
	}
	return AppendBool(b, key, true)
}

// AppendBare appends ` key=v` unquoted.  v must be a non-empty token
// with no spaces: an enum name, never free text.
func AppendBare(b []byte, key, v string) []byte {
	return append(appendKey(b, key), v...)
}

// Seal appends the ` crc=%08x` trailer: the CRC-32 (IEEE) of every
// byte of b.
func Seal(b []byte) []byte {
	sum := crc32.ChecksumIEEE(b)
	b = append(b, " crc="...)
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[sum>>shift&0xf])
	}
	return b
}

func appendKey(b []byte, key string) []byte {
	b = append(b, ' ')
	b = append(b, key...)
	return append(b, '=')
}

// AppendQuote is strconv.AppendQuote specialized for the common case
// of the simulator's encoders — printable ASCII with occasional
// quotes, backslashes, and newlines.  Output is byte-identical to
// strconv.AppendQuote; anything outside the fast cases defers to it.
func AppendQuote(b []byte, s string) []byte {
	n := len(b)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c < 0x7f {
			if c == '"' || c == '\\' {
				b = append(b, s[start:i]...)
				b = append(b, '\\', c)
				start = i + 1
			}
			continue
		}
		switch c {
		case '\n':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'n')
			start = i + 1
		case '\t':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 't')
			start = i + 1
		case '\r':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'r')
			start = i + 1
		default:
			// Non-ASCII or an exotic control: hand the whole string
			// to strconv for the full escaping rules.
			return strconv.AppendQuote(b[:n], s)
		}
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// quotedLen is len(AppendQuote(nil, s)), counted over AppendQuote's
// fast cases; anything outside them is measured through strconv.
func quotedLen(s string) int {
	n := len(s) + 2
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c < 0x7f {
			if c == '"' || c == '\\' {
				n++
			}
			continue
		}
		switch c {
		case '\n', '\t', '\r':
			n++
		default:
			return len(strconv.Quote(s))
		}
	}
	return n
}

// Reader parses one record strictly, in field order.  Its error is
// sticky: after the first failure every read returns a zero value,
// and Done reports that first failure.  Errors read
// `<kind>: field <key>: <cause>` or `<kind>: expected <key>= at "<rest>"`,
// so a damaged record names the field that broke.
type Reader struct {
	kind string // error prefix: the record family
	line string
	pos  int // bytes of line consumed
	err  error
}

// NewReader starts reading line; kind prefixes every error.
func NewReader(kind, line string) Reader {
	return Reader{kind: kind, line: line}
}

// Fail sets the reader's error, prefixed with the record kind, unless
// one is already set.  Callers use it for semantic checks (a negative
// job, an unknown enum name), so Done reports syntax and semantic
// failures alike.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.kind+": "+format, args...)
	}
}

// Err reports the first failure so far, without the trailing-bytes
// check Done makes.
func (r *Reader) Err() error { return r.err }

// Word reads the next bare token: the head on the first call, a
// positional word (such as the flock op) after it.
func (r *Reader) Word() string {
	if r.err == nil && !r.sep() {
		r.Fail("truncated at %q", r.line[r.pos:])
	}
	if r.err != nil {
		return ""
	}
	return r.token()
}

// Expect reads the head token and requires it to be head.
func (r *Reader) Expect(head string) {
	if w := r.Word(); w != head && r.err == nil {
		r.Fail("not a %s record: %q", head, r.line)
	}
}

// Int reads ` key=<canonical int64>`.
func (r *Reader) Int(key string) int64 {
	if !r.key(key) {
		return 0
	}
	raw := r.token()
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		r.Fail("field %s: %w", key, err)
		return 0
	}
	// ParseInt also accepts "+2", "007" and "-0", which would
	// re-encode differently.
	digits := strings.TrimPrefix(raw, "-")
	if raw[0] == '+' || (len(digits) > 1 && digits[0] == '0') || raw == "-0" {
		r.Fail("non-canonical %s=%s", key, raw)
		return 0
	}
	return v
}

// Bool reads ` key=true` or ` key=false`; no other spelling.
func (r *Reader) Bool(key string) bool {
	if !r.key(key) {
		return false
	}
	switch raw := r.token(); raw {
	case "true":
		return true
	case "false":
		return false
	default:
		r.Fail("field %s: not a canonical bool: %q", key, raw)
		return false
	}
}

// Flag reads an optional ` key=true`, the field AppendFlag writes only
// when set.  An absent field reads false; ` key=false` is never
// written, so it is left unread and the next field read refuses it.
func (r *Reader) Flag(key string) bool {
	rest := r.line[r.pos:]
	if r.err != nil || !strings.HasPrefix(rest, " ") || !strings.HasPrefix(rest[1:], key) {
		return false
	}
	rest = rest[1+len(key):]
	if !strings.HasPrefix(rest, "=true") || (len(rest) > 5 && rest[5] != ' ') {
		return false
	}
	r.pos += 1 + len(key) + 5
	return true
}

// Bare reads ` key=<token>` unquoted; the token must be non-empty.
func (r *Reader) Bare(key string) string {
	if !r.key(key) {
		return ""
	}
	raw := r.token()
	if raw == "" {
		r.Fail("field %s: empty value", key)
	}
	return raw
}

// Str reads ` key="..."` in its canonical strconv.Quote spelling.
// The result shares memory with the line when the value needed no
// escapes.
func (r *Reader) Str(key string) string {
	if !r.key(key) {
		return ""
	}
	rest := r.line[r.pos:]
	raw, v := plainQuoted(rest)
	if raw == "" {
		var err error
		raw, err = strconv.QuotedPrefix(rest)
		if err == nil && raw[0] != '"' {
			err = strconv.ErrSyntax // a backquoted or single-quoted literal
		}
		if err != nil {
			r.Fail("field %s: %w", key, err)
			return ""
		}
		v, _ = strconv.Unquote(raw) // QuotedPrefix validated raw
		if !canonicalQuote(raw, v) {
			r.Fail("non-canonical %s=%s", key, raw)
			return ""
		}
	}
	r.pos += len(raw)
	if r.pos < len(r.line) && r.line[r.pos] != ' ' {
		r.Fail("field %s: no space after the value at %q", key, r.line[r.pos:])
		return ""
	}
	return v
}

// Sealed reads the ` crc=%08x` trailer after the last field and checks
// it against every byte before it.
func (r *Reader) Sealed() {
	covered := r.pos
	if !r.key("crc") {
		return
	}
	raw := r.token()
	var want uint32
	ok := len(raw) == 8
	for i := 0; ok && i < len(raw); i++ {
		switch c := raw[i]; {
		case '0' <= c && c <= '9':
			want = want<<4 | uint32(c-'0')
		case 'a' <= c && c <= 'f':
			want = want<<4 | uint32(c-'a'+10)
		default:
			ok = false
		}
	}
	if !ok {
		r.Fail("crc %q is not 8 lowercase hex digits", raw)
		return
	}
	// crc32 only reads its input, so a read-only view of the line's
	// bytes stands in for a copy: parsing a sealed record allocates
	// nothing.
	covers := unsafe.Slice(unsafe.StringData(r.line), covered)
	if got := crc32.ChecksumIEEE(covers); got != want {
		r.Fail("crc mismatch: record says %s, bytes say %08x", raw, got)
	}
}

// Done ends the record: it refuses trailing bytes and returns the
// first error met.
func (r *Reader) Done() error {
	if r.err == nil && r.pos != len(r.line) {
		r.Fail("trailing bytes %q", r.line[r.pos:])
	}
	return r.err
}

// sep consumes the single space before every token but the head.
func (r *Reader) sep() bool {
	if r.pos == 0 {
		return true
	}
	if r.pos < len(r.line) && r.line[r.pos] == ' ' {
		r.pos++
		return true
	}
	return false
}

// key consumes ` key=`, failing when the next field is anything else.
func (r *Reader) key(key string) bool {
	if r.err != nil {
		return false
	}
	rest := r.line[r.pos:]
	at := strings.TrimPrefix(rest, " ")
	if len(at) == len(rest) || !strings.HasPrefix(at, key) || !strings.HasPrefix(at[len(key):], "=") {
		r.Fail("expected %s= at %q", key, at)
		return false
	}
	r.pos += 1 + len(key) + 1
	return true
}

// token consumes bytes up to the next space or the end of the line.
func (r *Reader) token() string {
	rest := r.line[r.pos:]
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	r.pos += len(rest)
	return rest
}

// plainQuoted is Str's one-scan prefix.  When s opens with a "..."
// literal whose bytes are all printable ASCII (0x20-0x7e) other than
// a backslash, it returns that literal and the value between its
// quotes: those are exactly the bytes strconv.Quote writes as
// themselves, so the literal is canonical as it stands and the value
// is a substring of s.  Anything else — an escape, a control byte,
// non-ASCII, no closing quote — returns "" for the strconv path.
func plainQuoted(s string) (raw, v string) {
	if s == "" || s[0] != '"' {
		return "", ""
	}
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			return s[:i+1], s[1:i]
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", ""
		}
	}
	return "", ""
}

// canonicalQuote reports whether raw is exactly strconv.Quote(v).
// Without a backslash in raw, that holds when raw holds v verbatim and
// every rune of v is valid and printable — the runes Quote writes
// literally; the rare escaped value is compared outright.
func canonicalQuote(raw, v string) bool {
	if strings.IndexByte(raw, '\\') >= 0 {
		return strconv.Quote(v) == raw
	}
	if raw[1:len(raw)-1] != v {
		return false // invalid UTF-8 that Unquote replaced
	}
	for i := 0; i < len(v); {
		c, w := utf8.DecodeRuneInString(v[i:])
		if (c == utf8.RuneError && w == 1) || !strconv.IsPrint(c) {
			return false
		}
		i += w
	}
	return true
}
