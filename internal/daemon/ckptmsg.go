package daemon

import (
	"time"

	"github.com/errscope/grid/internal/record"
	"github.com/errscope/grid/internal/scope"
)

// The checkpoint codec.  A checkpoint crosses the pool boundary — it
// leaves the execution machine and must survive that machine's death —
// so it travels as a sealed canonical record (package record) rather
// than a process-local struct: one line, fixed field order, and a
// CRC-32 trailer over everything before it.  A corrupted or truncated
// line is a parse error the shadow scopes as a network failure — the
// checkpoint is damaged, not the job, and the previous committed
// checkpoint still stands.
//
//	ckpt job=7 cpu=1800000000000 crc=49c55efe

// EncodeCheckpoint renders the canonical one-line checkpoint record
// for a job's accumulated CPU progress.
func EncodeCheckpoint(job JobID, cpu time.Duration) string {
	b := append(make([]byte, 0, 48), "ckpt"...)
	b = record.AppendInt(b, "job", int64(job))
	b = record.AppendInt(b, "cpu", int64(cpu))
	return string(record.Seal(b))
}

// ParseCheckpoint decodes one checkpoint record strictly (see package
// record): anything but the canonical, correctly sealed line — above
// all, a payload damaged in transit — is an error.
func ParseCheckpoint(s string) (JobID, time.Duration, error) {
	r := record.NewReader("ckpt", s)
	r.Expect("ckpt")
	job, cpu := r.Int("job"), r.Int("cpu")
	r.Sealed()
	if job < 0 || cpu < 0 {
		r.Fail("negative job %d or cpu %d", job, cpu)
	}
	if err := r.Done(); err != nil {
		return 0, 0, err
	}
	return JobID(job), time.Duration(cpu), nil
}

// ckptCorruptErr scopes a damaged checkpoint record: the network
// delivered bytes whose CRC does not hold, so the loss is the
// record's, not the job's — the shadow keeps the previous committed
// checkpoint and waits for the next one.
func ckptCorruptErr(cause error) *scope.Error {
	e := scope.New(scope.ScopeNetwork, "CheckpointCorrupt",
		"checkpoint did not survive transit: %v", cause)
	e.Kind = scope.KindEscaping
	return e
}

// CorruptCheckpoint returns the body with one byte of its checkpoint
// payload flipped (the byte at index n modulo the payload length), for
// fault injection; non-checkpoint bodies pass through unchanged.
// Exported so the fault injector can damage the payload without
// knowing the daemon's message types.
func CorruptCheckpoint(body any, n int) any {
	m, ok := body.(checkpointMsg)
	if !ok || len(m.Payload) == 0 {
		return body
	}
	if n < 0 {
		n = -n
	}
	b := []byte(m.Payload)
	b[n%len(b)] ^= 0x20
	m.Payload = string(b)
	return m
}
