package monitor

import (
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/record"
)

// The monitor stream codec.  Every record that crosses the ops-plane
// boundary — a streamed obs event, a pool-metrics snapshot, a
// subscribe request, an admin verb and its acknowledgement — travels
// as a sealed canonical record (package record): fixed field order,
// Go-quoted strings, canonical integers, and a CRC-32 trailer over
// everything before it.  A field out of order, a non-canonical
// spelling, or a CRC that does not hold is a parse error scoped at the
// network (the record is damaged, not the pool).
//
//	mev t=60000000000 comp="big" kind="state" job=1 code="evicted" scope="" ekind="" detail="" value=0 crc=1a2b3c4d
//	mmet t=60000000000 jobs=4 completed=2 ... lost=0 crc=9f43aa10
//	msub from=0 crc=c8d21f00
//	madm verb="drain" target="big" crc=00e1f2a3
//	mok verb="drain" target="big" detail="draining big" crc=7b61c2d9

// Stream command bytes (wire.ModeBinary / wire.ModeSecure), in the
// 0xC0 range so a monitor frame is distinguishable at a glance from
// session frames (0xE0), remoteio RPC (0xB0), and the shared
// wire.CmdOK/CmdErr replies.  The payload of each is the
// corresponding canonical record.
const (
	cmdSub     byte = 0xC0
	cmdEvent   byte = 0xC1
	cmdMetrics byte = 0xC2
	cmdAdmin   byte = 0xC3
)

// Snapshot is one streamed pool-metrics record: the counters an
// operator watches, stamped with the pool clock.  Durations travel as
// int64 nanoseconds, like every timestamp in package obs.
type Snapshot struct {
	T            int64
	Jobs         int64
	Completed    int64
	Unexecutable int64
	Held         int64
	Unfinished   int64
	Attempts     int64
	Evictions    int64
	Preemptions  int64
	Requeues     int64
	Recoveries   int64
	GoodputNS    int64
	BadputNS     int64
	Sent         int64
	Lost         int64
}

// EncodeEvent renders the canonical record of one streamed obs event.
// Every field is present, zero or not: a fixed shape parses strictly.
func EncodeEvent(ev obs.Event) string {
	n := len(ev.Comp) + len(ev.Kind) + len(ev.Code) + len(ev.Scope) + len(ev.EKind) + len(ev.Detail)
	b := append(make([]byte, 0, 128+n), "mev"...)
	b = record.AppendInt(b, "t", ev.T)
	b = record.AppendStr(b, "comp", ev.Comp)
	b = record.AppendStr(b, "kind", ev.Kind)
	b = record.AppendInt(b, "job", ev.Job)
	b = record.AppendStr(b, "code", ev.Code)
	b = record.AppendStr(b, "scope", ev.Scope)
	b = record.AppendStr(b, "ekind", ev.EKind)
	b = record.AppendStr(b, "detail", ev.Detail)
	b = record.AppendInt(b, "value", ev.Value)
	return string(record.Seal(b))
}

// ParseEvent decodes one streamed event record, strictly.
func ParseEvent(s string) (obs.Event, error) {
	r := record.NewReader("monitor", s)
	r.Expect("mev")
	ev := obs.Event{T: r.Int("t"), Comp: r.Str("comp"), Kind: r.Str("kind"),
		Job: r.Int("job"), Code: r.Str("code"), Scope: r.Str("scope"),
		EKind: r.Str("ekind"), Detail: r.Str("detail"), Value: r.Int("value")}
	r.Sealed()
	return ev, r.Done()
}

// snapFields fixes the wire order of the snapshot record.
var snapFields = []string{"t", "jobs", "completed", "unexecutable", "held",
	"unfinished", "attempts", "evictions", "preemptions", "requeues",
	"recoveries", "goodput", "badput", "sent", "lost"}

func (m *Snapshot) fieldPtrs() []*int64 {
	return []*int64{&m.T, &m.Jobs, &m.Completed, &m.Unexecutable, &m.Held,
		&m.Unfinished, &m.Attempts, &m.Evictions, &m.Preemptions, &m.Requeues,
		&m.Recoveries, &m.GoodputNS, &m.BadputNS, &m.Sent, &m.Lost}
}

// EncodeSnapshot renders the canonical pool-metrics record.
func EncodeSnapshot(m Snapshot) string {
	b := append(make([]byte, 0, 256), "mmet"...)
	for i, p := range m.fieldPtrs() {
		b = record.AppendInt(b, snapFields[i], *p)
	}
	return string(record.Seal(b))
}

// ParseSnapshot decodes one pool-metrics record, strictly.
func ParseSnapshot(s string) (Snapshot, error) {
	var m Snapshot
	r := record.NewReader("monitor", s)
	r.Expect("mmet")
	for i, p := range m.fieldPtrs() {
		*p = r.Int(snapFields[i])
	}
	r.Sealed()
	return m, r.Done()
}

// EncodeSub renders a subscribe request: stream events from the given
// index (0 = full backlog).
func EncodeSub(from int64) string {
	return string(record.Seal(record.AppendInt([]byte("msub"), "from", from)))
}

// ParseSub decodes one subscribe request, strictly.
func ParseSub(s string) (int64, error) {
	r := record.NewReader("monitor", s)
	r.Expect("msub")
	from := r.Int("from")
	r.Sealed()
	if from < 0 {
		r.Fail("negative subscribe index %d", from)
	}
	return from, r.Done()
}

// EncodeAdmin renders an admin verb request.
func EncodeAdmin(verb, target string) string {
	b := record.AppendStr([]byte("madm"), "verb", verb)
	return string(record.Seal(record.AppendStr(b, "target", target)))
}

// ParseAdmin decodes one admin verb request, strictly.
func ParseAdmin(s string) (verb, target string, err error) {
	r := record.NewReader("monitor", s)
	r.Expect("madm")
	verb, target = r.Str("verb"), r.Str("target")
	r.Sealed()
	return verb, target, r.Done()
}

// EncodeAdminOK renders the acknowledgement of a completed admin verb.
func EncodeAdminOK(verb, target, detail string) string {
	b := record.AppendStr([]byte("mok"), "verb", verb)
	b = record.AppendStr(b, "target", target)
	return string(record.Seal(record.AppendStr(b, "detail", detail)))
}

// ParseAdminOK decodes one admin acknowledgement, strictly.
func ParseAdminOK(s string) (verb, target, detail string, err error) {
	r := record.NewReader("monitor", s)
	r.Expect("mok")
	verb, target, detail = r.Str("verb"), r.Str("target"), r.Str("detail")
	r.Sealed()
	return verb, target, detail, r.Done()
}
