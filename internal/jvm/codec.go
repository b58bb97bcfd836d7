package jvm

import (
	"fmt"
	"strings"
	"time"

	"github.com/errscope/grid/internal/record"
	"github.com/errscope/grid/internal/scope"
)

// Program serialization for the schedd's write-ahead journal.  A
// submitted job's program must survive a schedd crash, so the submit
// record carries the program in this line-based form: one header line
// (class name and image flag), then one line per step.  The encoding
// is deterministic — identical programs encode to identical bytes — so
// journaled logs stay byte-stable per seed.

// EncodeProgram renders p into the journal line form.  A nil program
// encodes to the empty string and decodes back to nil.
func EncodeProgram(p *Program) string {
	if p == nil {
		return ""
	}
	b := append(make([]byte, 0, 48+32*len(p.Steps)), "program"...)
	b = record.AppendStr(b, "class", p.Class)
	b = record.AppendBool(b, "corrupt", p.ImageCorrupt)
	for _, s := range p.Steps {
		b = append(b, '\n')
		switch s := s.(type) {
		case Compute:
			b = record.AppendInt(append(b, "compute"...), "dur", int64(s.Duration))
		case Allocate:
			b = record.AppendInt(append(b, "allocate"...), "bytes", s.Bytes)
		case Free:
			b = record.AppendInt(append(b, "free"...), "bytes", s.Bytes)
		case Throw:
			b = record.AppendStr(append(b, "throw"...), "exception", s.Exception)
			b = record.AppendStr(b, "message", s.Message)
			b = record.AppendBare(b, "scope", s.Scope.String())
		case Exit:
			b = record.AppendInt(append(b, "exit"...), "code", int64(s.Code))
		case IORead:
			b = record.AppendStr(append(b, "ioread"...), "path", s.Path)
			b = record.AppendInt(b, "offset", s.Offset)
			b = record.AppendInt(b, "length", int64(s.Length))
		case IOWrite:
			b = record.AppendStr(append(b, "iowrite"...), "path", s.Path)
			b = record.AppendInt(b, "offset", s.Offset)
			b = record.AppendStr(b, "data", string(s.Data))
		default:
			// A step type the codec does not know cannot be made
			// durable; fail loudly rather than journal a lie.
			panic(fmt.Sprintf("jvm: EncodeProgram: unknown step type %T", s))
		}
	}
	return string(append(b, '\n'))
}

// ParseProgram decodes the output of EncodeProgram, strictly (see
// package record): any other spelling is an error.  The journal frames
// its records with checksums, so a malformed program is a logic bug,
// not a torn write.
func ParseProgram(src string) (*Program, error) {
	if src == "" {
		return nil, nil
	}
	body, ok := strings.CutSuffix(src, "\n")
	if !ok {
		return nil, fmt.Errorf("jvm: program does not end in a newline")
	}
	lines := strings.Split(body, "\n")
	r := record.NewReader("jvm", lines[0])
	r.Expect("program")
	p := &Program{Class: r.Str("class"), ImageCorrupt: r.Bool("corrupt")}
	if err := r.Done(); err != nil {
		return nil, err
	}
	for _, line := range lines[1:] {
		r := record.NewReader("jvm", line)
		var step Step
		switch kind := r.Word(); kind {
		case "compute":
			step = Compute{Duration: time.Duration(r.Int("dur"))}
		case "allocate":
			step = Allocate{Bytes: r.Int("bytes")}
		case "free":
			step = Free{Bytes: r.Int("bytes")}
		case "throw":
			t := Throw{Exception: r.Str("exception"), Message: r.Str("message")}
			// A Throw's scope defaults to zero (program scope at run
			// time); ParseScope rejects "none", so special-case it.
			if name := r.Bare("scope"); name != scope.ScopeNone.String() && r.Err() == nil {
				var err error
				if t.Scope, err = scope.ParseScope(name); err != nil {
					r.Fail("field scope: %w", err)
				}
			}
			step = t
		case "exit":
			step = Exit{Code: int(r.Int("code"))}
		case "ioread":
			step = IORead{Path: r.Str("path"), Offset: r.Int("offset"), Length: int(r.Int("length"))}
		case "iowrite":
			step = IOWrite{Path: r.Str("path"), Offset: r.Int("offset"), Data: []byte(r.Str("data"))}
		default:
			r.Fail("unknown step %q", kind)
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		p.Steps = append(p.Steps, step)
	}
	return p, nil
}
