package journal

import (
	"bytes"
	"testing"
)

// TestAppendBatchEqualsAppends pins the group-commit foundation: a
// batch of records is byte-for-byte the same log as the records
// appended one at a time, so replay cannot tell the difference and
// neither can the torn-tail truncation logic.
func TestAppendBatchEqualsAppends(t *testing.T) {
	want := payloads(17)

	one := New()
	for _, p := range want {
		one.Append(p)
	}
	batched := New()
	batched.AppendBatch(batch(want[:5]...))
	batched.AppendBatch(nil, nil) // an empty batch writes nothing
	batched.AppendBatch(batch(want[5:]...))

	if !bytes.Equal(one.Bytes(), batched.Bytes()) {
		t.Fatal("batched log differs from the record-at-a-time log")
	}
	if one.Appends() != batched.Appends() {
		t.Fatalf("appends = %d vs %d: each batched record must count", batched.Appends(), one.Appends())
	}
	r := batched.Replay()
	if r.Records != len(want) || r.Truncated != 0 {
		t.Fatalf("replay = %d records, %d truncated", r.Records, r.Truncated)
	}
	for i, p := range want {
		if !bytes.Equal(r.Entries[i], p) {
			t.Fatalf("entry %d = %q, want %q", i, r.Entries[i], p)
		}
	}
}

// TestAppendBatchTornTail cuts a batched log at every byte offset: a
// crash mid-batch must replay every intact record and drop only the
// torn frame, exactly as with individual appends.
func TestAppendBatchTornTail(t *testing.T) {
	want := payloads(6)
	j := New()
	j.AppendBatch(batch(want...))
	full := j.Bytes()

	// Recompute record boundaries from an incremental build.
	ref := New()
	var bounds []int
	for _, p := range want {
		ref.Append(p)
		bounds = append(bounds, ref.Size())
	}

	for cut := 0; cut <= len(full); cut++ {
		r := Decode(full[:cut])
		intact := 0
		for _, b := range bounds {
			if b <= cut {
				intact++
			}
		}
		if r.Records != intact {
			t.Fatalf("cut=%d: records=%d, want %d", cut, r.Records, intact)
		}
		for i := 0; i < intact; i++ {
			if !bytes.Equal(r.Entries[i], want[i]) {
				t.Fatalf("cut=%d: entry %d corrupted", cut, i)
			}
		}
	}
}
