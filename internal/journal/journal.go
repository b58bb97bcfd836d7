// Package journal is the submit-side durability layer: an
// append-only, checksummed, record-framed write-ahead log.  The schedd
// appends a record for every job-queue transition *before* acting on
// it, so the queue a crash destroys in memory is always reconstructible
// from the log — the job_queue.log discipline of real Condor.
//
// The format is deliberately tolerant of exactly one failure mode and
// intolerant of all others.  A torn tail — the bytes a crash cut short
// mid-append — is normal and expected: Replay truncates to the last
// intact record and reports how many bytes it dropped, never an error.
// A damaged record *before* the tail is indistinguishable from a torn
// tail by design: replay stops at the first frame that fails its
// checksum, because trusting anything after a corrupt record would
// reorder history.  A clean tail replays completely with zero bytes
// dropped.
//
// Records come in two kinds.  Entry records are the transitions;
// snapshot records are compaction points: a snapshot's payload is a
// complete serialization of the writer's state, so replay is the last
// snapshot plus the entries after it, and Compact can discard the
// prefix the snapshot subsumes.
package journal

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
)

// Frame layout, all integers little-endian:
//
//	offset 0  magic (0xA5)
//	offset 1  kind ('E' entry, 'S' snapshot)
//	offset 2  payload length, uint32
//	offset 6  CRC-32C (Castagnoli) of kind byte + payload, uint32
//	offset 10 payload
const (
	magic      byte = 0xA5
	headerSize      = 10

	// KindEntry frames one state transition.
	KindEntry byte = 'E'
	// KindSnapshot frames a complete state serialization; replay
	// discards everything before the last intact snapshot.
	KindSnapshot byte = 'S'
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// kindCRC is the CRC-32C of a frame's kind byte alone: the seed every
// frame's checksum continues from, computed once so that neither
// framing nor decoding builds a one-byte slice per record.
var kindCRC = [2]uint32{
	crc32.Checksum([]byte{KindEntry}, castagnoli),
	crc32.Checksum([]byte{KindSnapshot}, castagnoli),
}

// frameCRC is the checksum a frame of kind carrying payload stores.
func frameCRC(kind byte, payload []byte) uint32 {
	seed := kindCRC[0]
	if kind == KindSnapshot {
		seed = kindCRC[1]
	}
	return crc32.Update(seed, castagnoli, payload)
}

// putHeader fills a frame header.
func putHeader(hdr []byte, kind byte, n int, crc uint32) {
	hdr[0] = magic
	hdr[1] = kind
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(n))
	binary.LittleEndian.PutUint32(hdr[6:10], crc)
}

// The log's chunk sizes.  Chunk k holds firstChunk<<k bytes for the
// first leadChunks chunks — 512 B doubling to 32 KiB, so a short
// journal (a test, a small federated schedd) costs a few KiB — and
// chunkSize bytes after that.  Every size is a Go allocator size class
// or a whole number of 8 KiB pages, so no chunk carries slack.
const (
	firstChunk = 512
	leadChunks = 7
	chunkSize  = 64 << 10
)

// chunkCap is the capacity of chunk k.
func chunkCap(k int) int {
	if k < leadChunks {
		return firstChunk << k
	}
	return chunkSize
}

// Journal is the durable log — the "disk" that survives a simulated
// crash of its writer.  All methods are safe for concurrent use; the
// simulation is single-threaded, but the race-enabled journal-smoke
// test exercises concurrent append and compaction so the type stays
// correct under a live runtime too.
//
// The log is a list of chunks, not one growing slice: an append copies
// its frame into the last chunk and opens the next when that one is
// full, so no byte already written is ever copied again.  A frame may
// span chunks; the byte stream — what Bytes returns and Decode reads —
// is the chunks concatenated.
type Journal struct {
	mu     sync.Mutex
	chunks [][]byte // chunk k has capacity chunkCap(k); all but the last are full
	size   int      // bytes in the log
	tail   int      // entry records after the last snapshot
	snap   Writer   // the snapshot writer Compact hands out

	appends     int
	compactions int
}

// New returns an empty journal.
func New() *Journal { return &Journal{} }

// write copies p onto the end of the log, opening chunks as it goes.
func (j *Journal) write(p []byte) {
	for len(p) > 0 {
		k := len(j.chunks) - 1
		if k < 0 || len(j.chunks[k]) == cap(j.chunks[k]) {
			k++
			j.chunks = append(j.chunks, make([]byte, 0, chunkCap(k)))
		}
		c := j.chunks[k]
		n := min(len(p), cap(c)-len(c))
		j.chunks[k] = append(c, p[:n]...)
		j.size += n
		p = p[n:]
	}
}

// entry frames one entry record onto the end of the log.
func (j *Journal) entry(payload []byte) {
	var hdr [headerSize]byte
	putHeader(hdr[:], KindEntry, len(payload), frameCRC(KindEntry, payload))
	j.write(hdr[:])
	j.write(payload)
	j.appends++
	j.tail++
}

// Append writes one entry record.
func (j *Journal) Append(payload []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entry(payload)
}

// AppendBatch writes a group of entry records under one critical
// section — the group-commit primitive.  The records are laid end to
// end in buf: record i is buf[ends[i-1]:ends[i]], the first starting
// at 0.  The batch is framed back-to-back, so replay sees exactly the
// records one Append per record would have produced, but the writer
// pays one lock acquisition (one fsync, on a real disk) for the whole
// batch.
func (j *Journal) AppendBatch(buf []byte, ends []int) {
	if len(ends) == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	start := 0
	for _, end := range ends {
		j.entry(buf[start:end])
		start = end
	}
}

// Compact atomically replaces the log with one snapshot record whose
// payload fn writes through w, and returns the number of entry records
// the snapshot subsumed: those appended since the previous snapshot.
// fn serializes the caller's complete state; everything the snapshot
// subsumes is discarded.  The snapshot is streamed straight into a
// fresh chunk list behind a placeholder header, which is patched with
// the payload's length and checksum once fn returns; the old chunks
// are dropped.  The snapshot frame's bytes are exactly those of a
// snapshot built whole and then framed.
//
// fn runs inside the journal's critical section, so no concurrent
// append can slip between the state the snapshot captures and the log
// it replaces — this is the safe way to compact while writers are
// live.  fn must not call the journal's methods, and w is valid only
// until fn returns.
func (j *Journal) Compact(fn func(w *Writer)) (folded int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	folded = j.tail
	j.snap = Writer{j: j, crc: frameCRC(KindSnapshot, nil)}
	// The chunk list's array is kept, cleared so the old chunks are
	// garbage.
	clear(j.chunks)
	j.chunks, j.size, j.tail = j.chunks[:0], 0, 0
	var hdr [headerSize]byte
	j.write(hdr[:])
	fn(&j.snap)
	// Chunk 0 is at least headerSize bytes, so the header lies whole
	// in it.
	putHeader(j.chunks[0][:headerSize], KindSnapshot, j.snap.n, j.snap.crc)
	j.snap.j = nil
	j.compactions++
	return folded
}

// Writer streams one snapshot payload into the journal during Compact.
type Writer struct {
	j   *Journal
	n   int    // payload bytes written
	crc uint32 // running CRC-32C of kind byte + payload
}

// Write appends p to the snapshot payload.  It never fails; the
// signature is io.Writer's.
func (w *Writer) Write(p []byte) (int, error) {
	if w.j == nil {
		panic("journal: snapshot Writer used outside Compact")
	}
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.n += len(p)
	w.j.write(p)
	return len(p), nil
}

// Bytes returns a copy of the durable bytes — what a recovery process
// would read off the disk.
func (j *Journal) Bytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]byte, 0, j.size)
	for _, c := range j.chunks {
		out = append(out, c...)
	}
	return out
}

// SetBytes replaces the durable bytes wholesale.  Tests use it to
// model torn writes and corruption; recovery tooling uses it to mount
// a salvaged log.
func (j *Journal) SetBytes(b []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.chunks, j.size = nil, 0
	j.write(b)
	j.tail = len(Decode(b).Entries)
}

// Size returns the current log length in bytes.
func (j *Journal) Size() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Tail returns the number of intact entry records after the last
// snapshot: the records a compaction now would fold.
func (j *Journal) Tail() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tail
}

// Appends returns how many entry records have been appended over the
// journal's lifetime (compaction does not reset it).
func (j *Journal) Appends() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Compactions returns how many times the log has been compacted.
func (j *Journal) Compactions() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactions
}

// Replay decodes the journal's current contents.
func (j *Journal) Replay() Replay { return Decode(j.Bytes()) }

// Replay is the result of decoding a log: the last intact snapshot (if
// any), the entry payloads after it, and how the tail ended.
type Replay struct {
	// Snapshot is the payload of the last intact snapshot record, or
	// nil when the log holds none.
	Snapshot []byte
	// Entries are the entry payloads after the last snapshot, in
	// append order.
	Entries [][]byte
	// Records counts every intact record scanned, snapshots included.
	Records int
	// Truncated is the number of trailing bytes dropped as a torn or
	// corrupt tail; 0 means the log ended exactly on a record boundary.
	Truncated int
}

// Decode scans data from the front, accepting records until the first
// frame that is short, mis-tagged, or fails its checksum; everything
// from that point on is the torn tail.  Decode never fails: arbitrary
// input yields the longest intact prefix, possibly empty.  Returned
// payloads alias data.
func Decode(data []byte) Replay {
	var r Replay
	off := 0
	for {
		if len(data)-off < headerSize {
			break
		}
		if data[off] != magic {
			break
		}
		kind := data[off+1]
		if kind != KindEntry && kind != KindSnapshot {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off+2 : off+6]))
		if n < 0 || len(data)-off-headerSize < n {
			break
		}
		payload := data[off+headerSize : off+headerSize+n]
		want := binary.LittleEndian.Uint32(data[off+6 : off+10])
		if frameCRC(kind, payload) != want {
			break
		}
		if kind == KindSnapshot {
			r.Snapshot = payload
			r.Entries = r.Entries[:0]
		} else {
			r.Entries = append(r.Entries, payload)
		}
		r.Records++
		off += headerSize + n
	}
	r.Truncated = len(data) - off
	return r
}
