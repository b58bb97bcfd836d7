package daemon

// Submit-side crash durability (Section 4: the schedd is the job
// queue's home, and the queue must outlive the process).  Every queue
// transition is appended to a write-ahead journal before it is acted
// on; Crash tears the process down mid-flight, and Recover rebuilds
// the queue by replaying the journal, requeueing jobs whose shadows
// died with the schedd.
//
// The journal holds one text record per transition, and the periodic
// compaction folds the applied prefix into a snapshot of the whole
// queue.  Both are key=value lines with Go-quoted strings, so a torn
// tail truncates at a record boundary (package journal) and a record
// never splits across frames.
//
// Deliberately not persisted: per-job event logs and the transient
// counters (MatchesReceived, MatchesDeclined, ClaimsFailed) — they
// are telemetry about the dead process, not queue state — and the
// claim sequence numbers, whose timers died with the process and are
// fenced off by the epoch check on recovery.  Flock state is
// journaled (flock records) but never snapshotted: recovery resets
// every job to its home pool (normalizeJob), because the remote
// advertisement is exactly what a crash invalidates.

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"github.com/errscope/grid/internal/classad"
	"github.com/errscope/grid/internal/journal"
	"github.com/errscope/grid/internal/jvm"
	"github.com/errscope/grid/internal/obs"
	"github.com/errscope/grid/internal/record"
	"github.com/errscope/grid/internal/scope"
	"github.com/errscope/grid/internal/sim"
)

// walCompactEvery bounds journal growth: after this many appended
// records the log is folded into a snapshot before the next append.
const walCompactEvery = 64

// Journal exposes the schedd's write-ahead journal — the durable
// storage a recovery replays.  Tests and fault injectors read it from
// the "disk" of a crashed schedd.
func (s *Schedd) Journal() *journal.Journal { return s.wal }

// Crashed reports whether the schedd is currently down.
func (s *Schedd) Crashed() bool { return s.crashed }

// journalAppend writes one record ahead of the transition it
// describes.  batch is s.walBuf with the record's encoding appended —
// every call site passes rec*(s.walBuf, …) — so records are encoded
// straight into the one reused batch buffer.  The reference arm
// appends (and, on a real disk, syncs) immediately; the fast path
// keeps the record in the open batch and schedules the group commit
// for the end of the current instant, deferring every outgoing send
// behind it (see commitWAL).
func (s *Schedd) journalAppend(batch []byte) {
	if !s.fast {
		// Compaction runs before the append: every record already in
		// the log has been applied to the queue, so the snapshot of
		// the current queue plus the new record is the complete
		// history.  The reference arm's buffer holds only this record.
		if s.wal.Tail() >= walCompactEvery {
			s.compact()
		}
		s.wal.Append(batch)
		s.walBuf = batch[:0]
		return
	}
	s.walBuf = batch
	s.walEnds = append(s.walEnds, len(batch))
	if !s.commitArmed {
		s.commitArmed = true
		epoch := s.epoch
		// After(0) fires at the current instant but after every event
		// already queued for it — in particular after the rest of
		// this negotiation cycle's deliveries — so one commit batches
		// the whole cycle's transitions.
		s.bus.After(0, func() { s.commitWAL(epoch) })
	}
}

// compactEvery is the adaptive compaction threshold: at least the
// historic walCompactEvery, but grown with queue size.  A fixed
// threshold makes a big pool re-serialize its whole queue every 64
// transitions — O(queue²) journal work over a run — while a
// proportional one keeps compaction amortized O(1) per transition.
// The multiplier trades recovery replay length against snapshot
// traffic; at 4x the run-long journal cost stays O(1) per transition
// with half the 2x multiplier's snapshot bytes.
func (s *Schedd) compactEvery() int {
	if n := 4 * len(s.jobs); n > walCompactEvery {
		return n
	}
	return walCompactEvery
}

// commitWAL closes the open batch.  The buffered records become
// durable as one batched append — or are folded into a fresh snapshot
// when the log is due for compaction: every buffered record describes
// a transition already applied to the in-memory queue, so the
// snapshot subsumes the batch.  Only then do the deferred sends go
// out, in order.  The epoch fence drops commits armed before a crash:
// the buffer and outbox are process memory, and losing them at a
// crash is exactly the semantics the group-commit crash test pins.
func (s *Schedd) commitWAL(epoch int) {
	if s.crashed || epoch != s.epoch {
		return
	}
	s.commitArmed = false
	if len(s.walEnds) > 0 {
		if s.wal.Tail()+len(s.walEnds) >= s.compactEvery() {
			s.compact()
		} else {
			s.wal.AppendBatch(s.walBuf, s.walEnds)
		}
		s.walBuf, s.walEnds = s.walBuf[:0], s.walEnds[:0]
	}
	for i := range s.outbox {
		p := s.outbox[i]
		s.outbox[i] = pendingSend{}
		s.bus.Send(s.name, p.to, p.kind, p.body)
	}
	s.outbox = s.outbox[:0]
}

// ForceCompact folds the journal into a fresh snapshot now, without
// waiting for the adaptive threshold — the ops-plane `compact` verb.
// Any buffered group-commit records describe transitions already
// applied to the in-memory queue, so the snapshot subsumes them; the
// sends deferred behind those records still flush at the armed commit
// (durability is only ever strengthened here, never weakened).  On a
// crashed schedd the verb escapes to the caller as a local-resource
// error naming the daemon it touched.
func (s *Schedd) ForceCompact() error {
	if s.crashed {
		e := scope.New(scope.ScopeLocalResource, "ScheddDown",
			"cannot compact %s: the schedd is down", s.name)
		return e.WithOrigin(s.name)
	}
	s.compact()
	s.walBuf, s.walEnds = s.walBuf[:0], s.walEnds[:0]
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.name,
			Kind: obs.KindState, Code: "wal-compacted",
			Detail: "admin compact: journal folded into a snapshot"})
	}
	return nil
}

// Crash takes the schedd process down: the advertisement ticker
// stops, pending timers are fenced off by the epoch bump, the shadows
// — child processes — die silently, and the actor leaves the bus.
// The journal survives; it is the disk, not the process.
func (s *Schedd) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.epoch++
	// The open group-commit batch is process memory: records not yet
	// appended, and the sends that were waiting on them, die with the
	// process.  Nothing externally visible happened for them — that
	// is the whole point of deferring the sends.
	s.commitArmed = false
	s.walBuf, s.walEnds = s.walBuf[:0], s.walEnds[:0]
	clear(s.outbox)
	s.outbox = s.outbox[:0]
	if s.stopAds != nil {
		s.stopAds()
		s.stopAds = nil
	}
	s.tr.Count("schedd.crashes", 1)
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(s.bus.Now()), Comp: s.name,
			Kind: obs.KindState, Code: "crashed"})
	}
	// The execute side is not informed: running machines discover the
	// loss when the claim lease expires with no shadow to renew it.
	ids := make([]JobID, 0, len(s.shadows))
	for id := range s.shadows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s.shadows[id].kill()
	}
	clear(s.shadows)
	s.bus.Unregister(s.name)
}

// Recover restarts a crashed schedd from a journal — its own by
// default, or an explicit one standing in for the recovered disk.
// The queue is rebuilt by replaying the snapshot and every surviving
// record; jobs that were in flight when the process died are closed
// out with a local-resource ShadowDied error and requeued.
func (s *Schedd) Recover(from *journal.Journal) error {
	if !s.crashed {
		return fmt.Errorf("schedd %s: recover without a crash", s.name)
	}
	if from == nil {
		from = s.wal
	}
	data := from.Bytes()
	r := journal.Decode(data)
	if r.Truncated > 0 {
		// Cut the torn tail off the disk: a record appended behind it
		// would sit past the bytes replay stops at, and the next
		// recovery would lose it.
		from.SetBytes(data[:len(data)-r.Truncated])
	}

	s.wal = from
	s.jobs = make(map[JobID]*Job)
	s.order = nil
	s.nextID = 0
	s.shadowSeq = 0
	s.shadows = make(map[JobID]*Shadow)
	s.machineFailures = make(map[string]failureRecord)
	s.avoidedCache, s.avoidedDirty = nil, true
	s.idleOrder, s.idleStale, s.nonTerminal = nil, 0, 0
	s.idlePos = make(map[JobID]int)
	s.Reports = nil
	s.reportEnc, s.reportEncN = s.reportEnc[:0], 0
	s.Requeues = 0
	s.MatchesReceived, s.MatchesDeclined, s.ClaimsFailed = 0, 0, 0

	if len(r.Snapshot) > 0 {
		if err := s.applySnapshot(r.Snapshot); err != nil {
			return fmt.Errorf("schedd %s: snapshot: %w", s.name, err)
		}
	}
	for i, e := range r.Entries {
		if err := s.applyEntry(e); err != nil {
			return fmt.Errorf("schedd %s: record %d: %w", s.name, i, err)
		}
	}

	s.crashed = false
	s.bus.Register(s.name, s)
	s.stopAds = s.bus.Every(s.params.AdInterval, s.advertiseIdle)
	s.Recoveries++
	s.tr.Count("schedd.recoveries", 1)
	now := s.bus.Now()
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{T: int64(now), Comp: s.name, Kind: obs.KindRecovery,
			Value: int64(r.Records),
			Detail: fmt.Sprintf("replayed %d records, %d snapshot bytes, %d torn bytes dropped",
				r.Records, len(r.Snapshot), r.Truncated)})
	}

	// Normalize the rebuilt queue: any non-terminal job lost whatever
	// was serving it (shadow, claim, matchmaker entry) with the
	// process, so it restarts from idle.  The normalization itself is
	// journaled so a second crash replays to the same place.
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State.Terminal() {
			continue
		}
		open := j.LastAttempt() != nil && j.LastAttempt().End == 0
		s.journalAppend(recEvent(s.walBuf, "recover", j.ID, now))
		s.normalizeJob(j, now)
		if open {
			// The shadow died mid-attempt.  The machine is blameless —
			// the submit side failed — so the chronic-failure table is
			// untouched.
			died := j.LastAttempt().LostContact
			if s.tr.Enabled() {
				s.tr.Emit(errorEvent(int64(now), s.name, j.ID, died))
			}
			s.logEvent(j, EventShadowVanished, "%v", died)
		}
		s.logEvent(j, EventRecovered, "queue rebuilt from journal")
		s.advertiseJob(j)
	}
	// Recovery is complete only when its normalization records are on
	// disk; flush the batch before handing the queue back.
	s.commitWAL(s.epoch)
	return nil
}

// normalizeJob requeues one non-terminal job after recovery: an open
// attempt is closed with the ShadowDied error, and the job returns to
// idle.  Replay of a recover record applies the same function.
func (s *Schedd) normalizeJob(j *Job, at sim.Time) {
	if att := j.LastAttempt(); att != nil && att.End == 0 {
		att.End = at
		att.LostContact = shadowDiedErr(s.name)
	}
	// A flock arrangement — an advertisement standing at a peer
	// negotiator — died with the process; the rebuilt job starts over
	// from its home pool.
	s.resetFlock(j)
	if !j.State.Terminal() {
		s.setState(j, JobIdle)
	}
}

// shadowDiedErr is the error charged to an attempt orphaned by a
// schedd crash: the loss is on the submit side's local resources, and
// it escaped the dead process rather than being raised by it.
func shadowDiedErr(schedd string) *scope.Error {
	e := scope.New(scope.ScopeLocalResource, "ShadowDied",
		"the schedd crashed and took the job's shadow with it")
	e.Kind = scope.KindEscaping
	return e.WithOrigin(schedd)
}

// --- record encoding -------------------------------------------------
//
// Every journal record and snapshot line is one package-record line.
// A journal record's head is its op ("op=exec") and its first fields
// the job and the instant; a snapshot line's head names its kind.

// recHead starts a journal record on b: `op=<op> id=<id> at=<at>`.
// Each rec* encoder appends its record to b and returns the result,
// so the schedd encodes into its reused batch buffer.
func recHead(b []byte, op string, id JobID, at sim.Time) []byte {
	b = append(b, "op="...)
	b = append(b, op...)
	b = record.AppendInt(b, "id", int64(id))
	return record.AppendInt(b, "at", int64(at))
}

// identFields returns — building it on first use — the encoding of the
// job's immutable identity fields, shared by the submit record and
// every snapshot job line: ` owner=.. universe=.. exe=.. ad=.. prog=..`.
// Owner, Universe, Executable, Ad, and Program never change after
// submission (recovery builds a fresh Job), so the rendered ad and the
// quoting work are paid once per job instead of once per snapshot.
// The encoding is sized exactly up front: one allocation, no slack.
func (j *Job) identFields() []byte {
	if j.identEnc == nil {
		ad := ""
		if j.Ad != nil {
			ad = j.Ad.String()
		}
		prog := jvm.EncodeProgram(j.Program)
		n := record.StrLen("owner", j.Owner) + record.StrLen("universe", j.Universe) +
			record.StrLen("exe", j.Executable) + record.StrLen("ad", ad) + record.StrLen("prog", prog)
		b := make([]byte, 0, n)
		b = record.AppendStr(b, "owner", j.Owner)
		b = record.AppendStr(b, "universe", j.Universe)
		b = record.AppendStr(b, "exe", j.Executable)
		b = record.AppendStr(b, "ad", ad)
		j.identEnc = record.AppendStr(b, "prog", prog)
	}
	return j.identEnc
}

func recSubmit(b []byte, j *Job) []byte {
	return append(recHead(b, "submit", j.ID, j.Submitted), j.identFields()...)
}

func recMatch(b []byte, id JobID, at sim.Time, machine string) []byte {
	return record.AppendStr(recHead(b, "match", id, at), "machine", machine)
}

func recExec(b []byte, id JobID, at sim.Time, machine string) []byte {
	return record.AppendStr(recHead(b, "exec", id, at), "machine", machine)
}

// recFlock records a flock transition: the job's advertisement moved
// to the peer negotiator `to` at 1-based `level`, or came home again
// (level 0, empty to).
func recFlock(b []byte, id JobID, at sim.Time, level int, to string) []byte {
	b = record.AppendInt(recHead(b, "flock", id, at), "level", int64(level))
	return record.AppendStr(b, "to", to)
}

// recCkpt records a committed checkpoint: the job can resume from cpu
// nanoseconds of delivered work on any machine, even after a schedd
// crash.
func recCkpt(b []byte, id JobID, at sim.Time, cpu time.Duration) []byte {
	return record.AppendInt(recHead(b, "ckpt", id, at), "cpu", int64(cpu))
}

// recEvent covers the transitions that carry no payload beyond the
// job and the instant: claim-timeout, claim-denied, relax, recover.
func recEvent(b []byte, op string, id JobID, at sim.Time) []byte {
	return recHead(b, op, id, at)
}

func recFinal(b []byte, f jobFinalMsg, at sim.Time) []byte {
	b = recHead(b, "final", f.Job, at)
	b = record.AppendStr(b, "machine", f.Machine)
	b = record.AppendInt(b, "cpu", int64(f.CPU))
	b = record.AppendInt(b, "ckpt", int64(f.CheckpointCPU))
	b = record.AppendBool(b, "evicted", f.Evicted)
	b = record.AppendFlag(b, "pre", f.Preempted)
	b = record.AppendBool(b, "hold", f.Hold)
	return appendOutcome(b, f.FetchError, f.LostContact, &f.Reported, &f.True)
}

// appendOutcome writes the fields a final record and a snapshot
// attempt line share: the fetch and lost-contact errors and the
// reported and true results.
func appendOutcome(b []byte, fetch, lost error, rep, tru *scope.Result) []byte {
	b = record.AppendStr(b, "fetch", encodeScopedErr(fetch))
	b = record.AppendStr(b, "lost", encodeScopedErr(lost))
	b = appendResult(b, "rep", rep)
	return appendResult(b, "tru", tru)
}

// appendResult appends ` key="<encoded result>"`.  The result is
// encoded in a stack buffer and quoted from there, so the record
// holds the only copy.
func appendResult(b []byte, key string, r *scope.Result) []byte {
	var tmp [256]byte
	return record.AppendStrBytes(b, key, r.AppendEncoded(tmp[:0]))
}

// encodeScopedErr flattens an error for the journal.  The cause chain
// is collapsed into the effective message, so the round-tripped error
// prints the identical Error() string and keeps its scope, kind,
// code, and origin — everything disposition and reporting read.
func encodeScopedErr(err error) string {
	if err == nil {
		return ""
	}
	se, ok := scope.AsError(err)
	if !ok {
		se = scope.New(scope.ScopeOf(err), "UnscopedError", "%v", err)
	}
	msg := se.Message
	if msg == "" && se.Cause != nil {
		msg = se.Cause.Error()
	}
	return strings.Join([]string{
		se.Scope.String(), se.Kind.String(), se.Code, se.Origin, msg}, "|")
}

// --- record replay ---------------------------------------------------
//
// Replay reads each record whole before touching the queue: a case
// reads its fields and returns the mutation, which runs only once the
// reader has accepted the entire line.

// applyEntry replays one journal record against the queue.  Records
// are facts, not requests: they were written ahead of transitions
// that then happened, so they apply unconditionally.
func (s *Schedd) applyEntry(payload []byte) error {
	r := record.NewReader("wal", string(payload))
	op, id, at := r.Word(), JobID(r.Int("id")), sim.Time(r.Int("at"))
	j := s.jobs[id]
	if j == nil && op != "op=submit" {
		r.Fail("%s record for unknown job %d", op, id)
	}
	var apply func()
	switch op {
	case "op=submit":
		nj := readIdent(&r, id, at)
		apply = func() {
			s.addJob(nj)
			s.nextID = max(s.nextID, id)
		}
	case "op=match":
		r.Str("machine") // unused: the exec record names the attempt's machine
		apply = func() { s.setState(j, JobMatched) }
	case "op=claim-timeout", "op=claim-denied":
		apply = func() { s.setState(j, JobIdle) }
	case "op=exec":
		machine := r.Str("machine")
		apply = func() {
			s.setState(j, JobRunning)
			j.avoidanceRelaxed = false
			s.resetFlock(j)
			j.Attempts = append(j.Attempts, Attempt{Machine: machine, Start: at})
		}
	case "op=relax":
		apply = func() { j.avoidanceRelaxed = true }
	case "op=ckpt":
		cpu := time.Duration(r.Int("cpu"))
		apply = func() { j.CheckpointCPU = max(j.CheckpointCPU, cpu) }
	case "op=flock":
		level, to := int(r.Int("level")), r.Str("to")
		apply = func() { j.flockedTo, j.flockLevel, j.flockedAt = to, level, at }
	case "op=final":
		f := jobFinalMsg{Job: id, Machine: r.Str("machine"),
			CPU: time.Duration(r.Int("cpu")), CheckpointCPU: time.Duration(r.Int("ckpt")),
			Evicted: r.Bool("evicted"), Preempted: r.Flag("pre"), Hold: r.Bool("hold")}
		readOutcome(&r, &f.FetchError, &f.LostContact, &f.Reported, &f.True)
		apply = func() { s.applyFinal(j, f, finalError(f), at) }
	case "op=recover":
		apply = func() { s.normalizeJob(j, at) }
	default:
		r.Fail("unknown record op %q", op)
	}
	if err := r.Done(); err != nil {
		return err
	}
	apply()
	return nil
}

// readIdent reads the identity fields identFields wrote into a fresh
// idle job.
func readIdent(r *record.Reader, id JobID, at sim.Time) *Job {
	j := &Job{ID: id, State: JobIdle, Submitted: at,
		Owner: r.Str("owner"), Universe: r.Str("universe"), Executable: r.Str("exe")}
	ad, prog := r.Str("ad"), r.Str("prog")
	var err error
	if ad != "" {
		if j.Ad, err = classad.Parse(ad); err != nil {
			r.Fail("job %d ad: %w", id, err)
		} else {
			j.Ad.Precompile()
		}
	}
	if j.Program, err = jvm.ParseProgram(prog); err != nil {
		r.Fail("job %d program: %w", id, err)
	}
	return j
}

// readOutcome reads the fields appendOutcome wrote.
func readOutcome(r *record.Reader, fetch, lost *error, rep, tru *scope.Result) {
	*fetch, *lost = readScopedErr(r, "fetch"), readScopedErr(r, "lost")
	*rep, *tru = readResult(r, "rep"), readResult(r, "tru")
}

// readScopedErr reads an error encodeScopedErr flattened.
func readScopedErr(r *record.Reader, key string) error {
	enc := r.Str(key)
	if enc == "" {
		return nil
	}
	parts := strings.SplitN(enc, "|", 5)
	if len(parts) != 5 {
		r.Fail("field %s: malformed error %q", key, enc)
		return nil
	}
	sc, err := scope.ParseScope(parts[0])
	if err != nil {
		r.Fail("field %s: %w", key, err)
	}
	k, err := scope.ParseKind(parts[1])
	if err != nil {
		r.Fail("field %s: %w", key, err)
	}
	return &scope.Error{Scope: sc, Kind: k, Code: parts[2],
		Origin: parts[3], Message: parts[4]}
}

func readResult(r *record.Reader, key string) scope.Result {
	res, err := scope.DecodeResultString(r.Str(key))
	if err != nil && r.Err() == nil {
		r.Fail("field %s: %w", key, err)
	}
	return res
}

// readEnum reads a bare enum name: the inverse of String over the
// enum's first n values.
func readEnum[E interface {
	~int
	String() string
}](r *record.Reader, key string, n int) E {
	name := r.Bare(key)
	for e := E(0); int(e) < n; e++ {
		if e.String() == name {
			return e
		}
	}
	r.Fail("field %s: unknown name %q", key, name)
	return 0
}

// --- snapshot --------------------------------------------------------

// snapshotFlush is the line-buffer fill at which writeSnapshot hands
// its buffered lines to the writer.
const snapshotFlush = 4 << 10

// compact folds the journal into a snapshot of the current queue,
// streamed straight into the journal by writeSnapshot.
func (s *Schedd) compact() {
	s.wal.Compact(func(w *journal.Writer) { s.writeSnapshot(w) })
}

// writeSnapshot serializes the whole queue to w: one header line, the
// chronic-failure table, then per job its attempts, then the user
// reports.  Line order is the replay order.  Lines are assembled in a
// reused buffer of a few KiB and handed to w as it fills, and the
// immutable pieces — job identity fields, frozen attempts,
// already-written reports — come from caches, so each compaction pays
// only for the state that changed since the last one.
func (s *Schedd) writeSnapshot(w io.Writer) {
	b := append(s.lineBuf[:0], "schedd"...)
	b = record.AppendInt(b, "nextID", int64(s.nextID))
	b = record.AppendInt(b, "requeues", int64(s.Requeues))
	b = record.AppendInt(b, "recoveries", int64(s.Recoveries))
	b = append(b, '\n')
	keys := s.failKeys[:0]
	for m, rec := range s.machineFailures {
		if rec.count != 0 {
			keys = append(keys, m)
		}
	}
	slices.Sort(keys)
	for _, m := range keys {
		rec := s.machineFailures[m]
		b = append(b, "failure"...)
		b = record.AppendStr(b, "machine", m)
		b = record.AppendInt(b, "count", int64(rec.count))
		b = record.AppendInt(b, "last", int64(rec.last))
		b = append(b, '\n')
	}
	clear(keys)
	s.failKeys = keys[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		b = append(b, "job"...)
		b = record.AppendInt(b, "id", int64(j.ID))
		b = append(b, j.identFields()...)
		b = record.AppendBare(b, "state", j.State.String())
		b = record.AppendInt(b, "ckpt", int64(j.CheckpointCPU))
		b = record.AppendBool(b, "relaxed", j.avoidanceRelaxed)
		b = record.AppendInt(b, "submitted", int64(j.Submitted))
		b = record.AppendInt(b, "finished", int64(j.Finished))
		b = record.AppendStr(b, "finalerr", encodeScopedErr(j.FinalErr))
		b = append(b, '\n')
		b = j.appendAttempts(b)
		if len(b) >= snapshotFlush {
			w.Write(b)
			b = b[:0]
		}
	}
	w.Write(b)
	s.lineBuf = b[:0]
	if s.reportEncN > len(s.Reports) {
		// Reports were reset (recovery rebuilds them); re-encode.
		s.reportEnc, s.reportEncN = s.reportEnc[:0], 0
	}
	for ; s.reportEncN < len(s.Reports); s.reportEncN++ {
		s.reportEnc = appendReport(s.reportEnc, &s.Reports[s.reportEncN])
	}
	w.Write(s.reportEnc)
}

// appendAttempts writes the job's attempt lines: the frozen prefix
// from the cache, the still-mutable tail fresh.  An attempt freezes
// when a later attempt exists (applyFinal and normalizeJob only touch
// the last), or when it is closed and the job is terminal.
func (j *Job) appendAttempts(b []byte) []byte {
	for j.attEncN < len(j.Attempts) {
		a := &j.Attempts[j.attEncN]
		if j.attEncN == len(j.Attempts)-1 && !(a.End != 0 && j.State.Terminal()) {
			break
		}
		j.attEnc = appendAttempt(j.attEnc, j.ID, a)
		j.attEncN++
	}
	b = append(b, j.attEnc...)
	for i := j.attEncN; i < len(j.Attempts); i++ {
		b = appendAttempt(b, j.ID, &j.Attempts[i])
	}
	return b
}

func appendAttempt(b []byte, id JobID, a *Attempt) []byte {
	b = append(b, "attempt"...)
	b = record.AppendInt(b, "id", int64(id))
	b = record.AppendStr(b, "machine", a.Machine)
	b = record.AppendInt(b, "start", int64(a.Start))
	b = record.AppendInt(b, "end", int64(a.End))
	b = record.AppendInt(b, "cpu", int64(a.CPU))
	b = record.AppendBool(b, "evicted", a.Evicted)
	b = record.AppendFlag(b, "pre", a.Preempted)
	b = appendOutcome(b, a.FetchError, a.LostContact, &a.Reported, &a.True)
	return append(b, '\n')
}

func appendReport(b []byte, r *UserReport) []byte {
	b = append(b, "report"...)
	b = record.AppendInt(b, "job", int64(r.Job))
	b = record.AppendBare(b, "disp", r.Disposition.String())
	b = appendResult(b, "result", &r.Result)
	b = record.AppendStr(b, "err", encodeScopedErr(r.Err))
	b = record.AppendBool(b, "leak", r.IncidentalLeak)
	return append(b, '\n')
}

// applySnapshot rebuilds the queue from a snapshot, one line at a
// time, in the order snapshot wrote them.
func (s *Schedd) applySnapshot(data []byte) error {
	var cur *Job // the job the following attempt lines belong to
	for ln, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		r := record.NewReader("snapshot", line)
		var apply func()
		switch kind := r.Word(); kind {
		case "schedd":
			next, requeues, recoveries := r.Int("nextID"), r.Int("requeues"), r.Int("recoveries")
			apply = func() {
				s.nextID, s.Requeues, s.Recoveries = JobID(next), int(requeues), int(recoveries)
			}
		case "failure":
			m := r.Str("machine")
			rec := failureRecord{count: int(r.Int("count")), last: sim.Time(r.Int("last"))}
			apply = func() {
				s.machineFailures[m] = rec
				s.avoidedDirty = true
			}
		case "job":
			j := readIdent(&r, JobID(r.Int("id")), 0)
			st := readEnum[JobState](&r, "state", len(jobStateNames))
			j.CheckpointCPU = time.Duration(r.Int("ckpt"))
			j.avoidanceRelaxed = r.Bool("relaxed")
			j.Submitted, j.Finished = sim.Time(r.Int("submitted")), sim.Time(r.Int("finished"))
			j.FinalErr = readScopedErr(&r, "finalerr")
			apply = func() {
				s.addJob(j)
				s.nextID = max(s.nextID, j.ID)
				s.setState(j, st)
				cur = j
			}
		case "attempt":
			id := JobID(r.Int("id"))
			a := Attempt{Machine: r.Str("machine"), Start: sim.Time(r.Int("start")),
				End: sim.Time(r.Int("end")), CPU: time.Duration(r.Int("cpu")),
				Evicted: r.Bool("evicted"), Preempted: r.Flag("pre")}
			readOutcome(&r, &a.FetchError, &a.LostContact, &a.Reported, &a.True)
			if cur == nil || cur.ID != id {
				r.Fail("attempt of job %d outside its job's lines", id)
			}
			apply = func() { cur.Attempts = append(cur.Attempts, a) }
		case "report":
			rep := UserReport{Job: JobID(r.Int("job")),
				Disposition:    readEnum[scope.Disposition](&r, "disp", int(scope.DispositionHold)+1),
				Result:         readResult(&r, "result"),
				Err:            readScopedErr(&r, "err"),
				IncidentalLeak: r.Bool("leak")}
			apply = func() { s.Reports = append(s.Reports, rep) }
		default:
			r.Fail("unknown snapshot line %q", kind)
		}
		if err := r.Done(); err != nil {
			return fmt.Errorf("line %d: %w", ln+1, err)
		}
		apply()
	}
	return nil
}
