package daemon

import (
	"github.com/errscope/grid/internal/record"
	"github.com/errscope/grid/internal/scope"
)

// The flock negotiation codec.  A flock decision is the one message
// that crosses pool-administration boundaries, so it travels as a
// canonical record (package record) rather than a process-local
// struct: one line, fixed field order, Go-quoted strings.  A truncated
// or corrupted line is a parse error the receiving schedd scopes as a
// network failure — the reply is damaged, not the job.
//
//	flock grant job=7 level=2 negotiator="mm-p2"
//	flock deny job=7 reason="no live peer pool"

// FlockOp is the decision a flock reply carries.
type FlockOp string

// Flock reply operations.
const (
	// FlockGrant names a live peer negotiator the job may flock to.
	FlockGrant FlockOp = "grant"
	// FlockDeny reports that no peer at or past the requested level
	// is alive; the job should return home.
	FlockDeny FlockOp = "deny"
)

// FlockMsg is one decoded flock decision.
type FlockMsg struct {
	Op  FlockOp
	Job JobID
	// Level is the flocking level granted: the 1-based index into the
	// configured peer order of the negotiator below.  Grant only.
	Level int
	// Negotiator is the peer negotiator's actor name.  Grant only.
	Negotiator string
	// Reason explains a deny.
	Reason string
}

// EncodeFlockMsg renders the canonical one-line encoding.
func EncodeFlockMsg(m FlockMsg) string {
	b := append(make([]byte, 0, 64), "flock "...)
	b = append(b, m.Op...)
	b = record.AppendInt(b, "job", int64(m.Job))
	switch m.Op {
	case FlockGrant:
		b = record.AppendInt(b, "level", int64(m.Level))
		b = record.AppendStr(b, "negotiator", m.Negotiator)
	case FlockDeny:
		b = record.AppendStr(b, "reason", m.Reason)
	}
	return string(b)
}

// ParseFlockMsg decodes one flock decision strictly (see package
// record): anything but the canonical line — above all, a line cut
// short in transit — is an error.
func ParseFlockMsg(s string) (FlockMsg, error) {
	r := record.NewReader("flock", s)
	r.Expect("flock")
	m := FlockMsg{Op: FlockOp(r.Word())}
	job := r.Int("job")
	m.Job = JobID(job)
	switch m.Op {
	case FlockGrant:
		level := r.Int("level")
		m.Level = int(level)
		m.Negotiator = r.Str("negotiator")
		if level < 1 || m.Negotiator == "" {
			r.Fail("grant level %d to negotiator %q out of range", level, m.Negotiator)
		}
	case FlockDeny:
		m.Reason = r.Str("reason")
	default:
		r.Fail("unknown op %q", m.Op)
	}
	if job < 0 {
		r.Fail("negative job %d", job)
	}
	return m, r.Done()
}

// flockReplyErr scopes a damaged flock reply: the network delivered
// bytes that do not parse, so the loss is the reply's, not the job's
// — the schedd keeps the job where it is and asks again.
func flockReplyErr(cause error) *scope.Error {
	e := scope.New(scope.ScopeNetwork, "FlockReplyCorrupt",
		"flock reply did not survive transit: %v", cause)
	e.Kind = scope.KindEscaping
	return e
}

// TruncateFlockReply returns the body with its flock payload cut to
// at most n bytes, for fault injection; non-flock bodies pass through
// unchanged.  Exported so the fault injector can damage the payload
// without knowing the daemon's message types.
func TruncateFlockReply(body any, n int) any {
	m, ok := body.(flockReplyMsg)
	if !ok {
		return body
	}
	if n < 0 {
		n = 0
	}
	if n < len(m.Payload) {
		m.Payload = m.Payload[:n]
	}
	return m
}
