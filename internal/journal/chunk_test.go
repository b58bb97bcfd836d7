package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// refFrame is the contiguous reference framing: one frame appended to
// a flat byte slice, written out field by field from the layout
// comment.  The chunked journal must produce exactly these bytes.
func refFrame(buf []byte, kind byte, payload []byte) []byte {
	crc := crc32.Update(crc32.Checksum([]byte{kind}, castagnoli), castagnoli, payload)
	buf = append(buf, magic, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return append(buf, payload...)
}

// chunkEdges returns the log offsets at which chunks end, up to limit.
func chunkEdges(limit int) []int {
	var edges []int
	for k, off := 0, 0; off < limit; k++ {
		off += chunkCap(k)
		edges = append(edges, off)
	}
	return edges
}

// nextEdge is the first chunk edge strictly after off.
func nextEdge(off int) int {
	for _, e := range chunkEdges(off + chunkSize + 1) {
		if e > off {
			return e
		}
	}
	panic("unreachable")
}

// TestChunkedMatchesReference drives seeded random appends, batches,
// and compactions against both the chunked journal and the contiguous
// reference framing.  Payloads include empty ones, ones longer than a
// whole chunk, and ones sized so their frame ends exactly on a chunk
// edge; after every operation the journal's bytes, size, and tail
// count must equal the reference's.
func TestChunkedMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		j := New()
		var ref []byte
		tail := 0
		payload := func() []byte {
			var n int
			switch rng.Intn(6) {
			case 0:
				n = 0
			case 1:
				n = chunkSize + rng.Intn(2*chunkSize) // spans chunks
			case 2:
				// Frame ends exactly on the next chunk edge.
				n = nextEdge(len(ref)+headerSize) - len(ref) - headerSize
			default:
				n = rng.Intn(300)
			}
			p := make([]byte, n)
			rng.Read(p)
			return p
		}
		for op := 0; op < 120; op++ {
			switch rng.Intn(8) {
			case 0:
				snap := payload()
				folded := j.Compact(func(w *Writer) {
					// Stream in uneven pieces, as an encoder does.
					for rest := snap; len(rest) > 0; {
						n := min(len(rest), 1+rng.Intn(700))
						w.Write(rest[:n])
						rest = rest[n:]
					}
				})
				if folded != tail {
					t.Fatalf("seed %d op %d: folded = %d, want %d", seed, op, folded, tail)
				}
				ref, tail = refFrame(nil, KindSnapshot, snap), 0
			case 1, 2:
				var recs [][]byte
				for n := rng.Intn(5); n > 0; n-- {
					recs = append(recs, payload())
				}
				j.AppendBatch(batch(recs...))
				for _, p := range recs {
					ref = refFrame(ref, KindEntry, p)
				}
				tail += len(recs)
			default:
				p := payload()
				j.Append(p)
				ref = refFrame(ref, KindEntry, p)
				tail++
			}
			if !bytes.Equal(j.Bytes(), ref) {
				t.Fatalf("seed %d op %d: chunked log differs from the reference framing", seed, op)
			}
			if j.Size() != len(ref) || j.Tail() != tail {
				t.Fatalf("seed %d op %d: size=%d tail=%d, want %d and %d",
					seed, op, j.Size(), j.Tail(), len(ref), tail)
			}
		}
	}
}

// TestChunkEdgeTornTail writes frames that straddle the first chunk
// edges and cuts the log at every offset around each edge.  Mounted
// back into a chunked journal, every cut must replay to exactly the
// records whose frames survived whole, with the rest reported torn.
func TestChunkEdgeTornTail(t *testing.T) {
	j := New()
	var want [][]byte
	var bounds []int
	for i := 0; j.Size() < 3*firstChunk+chunkSize; i++ {
		p := bytes.Repeat([]byte{byte('a' + i%26)}, 37+i*11)
		if i%9 == 8 {
			p = make([]byte, chunkSize/2)
		}
		j.Append(p)
		want = append(want, p)
		bounds = append(bounds, j.Size())
	}
	full := j.Bytes()
	for _, edge := range chunkEdges(len(full))[:4] {
		for cut := edge - 64; cut <= edge+64 && cut <= len(full); cut++ {
			k := New()
			k.SetBytes(full[:cut])
			if k.Size() != cut {
				t.Fatalf("cut=%d: size=%d", cut, k.Size())
			}
			r := k.Replay()
			intact := 0
			for intact < len(bounds) && bounds[intact] <= cut {
				intact++
			}
			if r.Records != intact || k.Tail() != intact {
				t.Fatalf("cut=%d (edge %d): records=%d tail=%d, want %d", cut, edge, r.Records, k.Tail(), intact)
			}
			for i := 0; i < intact; i++ {
				if !bytes.Equal(r.Entries[i], want[i]) {
					t.Fatalf("cut=%d: entry %d corrupted", cut, i)
				}
			}
			wantTrunc := cut
			if intact > 0 {
				wantTrunc = cut - bounds[intact-1]
			}
			if r.Truncated != wantTrunc {
				t.Fatalf("cut=%d: truncated=%d, want %d", cut, r.Truncated, wantTrunc)
			}
		}
	}
}

// TestShortJournalStaysSmall pins the small leading chunks: a journal
// of a few records holds one first-size chunk, not a full one.
func TestShortJournalStaysSmall(t *testing.T) {
	j := New()
	for _, p := range payloads(4) {
		j.Append(p)
	}
	if len(j.chunks) != 1 || cap(j.chunks[0]) != firstChunk {
		t.Fatalf("chunks = %d, first cap %d: want one %d-byte chunk", len(j.chunks), cap(j.chunks[0]), firstChunk)
	}
}

// TestAppendAllocs pins the garbage-free write-ahead path: a batch
// framed into a chunk with room allocates nothing, and a streamed
// compaction allocates only the chunks it fills.
func TestAppendAllocs(t *testing.T) {
	buf, ends := batch(payloads(8)...)
	j := New()
	j.chunks = [][]byte{make([]byte, 0, chunkSize)}
	if got := testing.AllocsPerRun(100, func() {
		j.chunks[0], j.size = j.chunks[0][:0], 0
		j.AppendBatch(buf, ends)
	}); got != 0 {
		t.Errorf("AppendBatch into a chunk with room: %.1f allocs, want 0", got)
	}

	snap := make([]byte, 3*chunkSize+100)
	chunks := len(chunkEdges(headerSize + len(snap)))
	j.Compact(func(w *Writer) { w.Write(snap) }) // sizes the chunk list
	if got := testing.AllocsPerRun(20, func() {
		j.Compact(func(w *Writer) {
			for rest := snap; len(rest) > 0; {
				n := min(len(rest), 1000)
				w.Write(rest[:n])
				rest = rest[n:]
			}
		})
	}); got != float64(chunks) {
		t.Errorf("streamed compaction into %d chunks: %.1f allocs, want %d", chunks, got, chunks)
	}
}
