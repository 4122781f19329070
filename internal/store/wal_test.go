package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"incgraph/internal/graph"
)

func walBatches() []graph.Batch {
	return []graph.Batch{
		{graph.InsNew(1, 2, "a", "b"), graph.InsNew(2, 3, "b", "c")},
		{graph.Del(1, 2)},
		{graph.InsNew(3, 1, "c", "a"), graph.Del(2, 3), graph.InsNew(1, 2, "a", "b")},
	}
}

func TestWALAppendReplay(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, err := CreateWAL(path, 7, policy)
			if err != nil {
				t.Fatal(err)
			}
			batches := walBatches()
			for i, b := range batches {
				if err := w.Append(b, uint64(10+i)); err != nil {
					t.Fatal(err)
				}
			}
			if w.Seq() != uint64(len(batches)) {
				t.Fatalf("seq = %d, want %d", w.Seq(), len(batches))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			records, _, err := ReplayWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(records) != len(batches) {
				t.Fatalf("replayed %d records, want %d", len(records), len(batches))
			}
			for i, rec := range records {
				if rec.Seq != uint64(i+1) || rec.Gen != uint64(10+i) {
					t.Fatalf("record %d stamped (%d,%d)", i, rec.Seq, rec.Gen)
				}
				if !reflect.DeepEqual(rec.Batch, batches[i]) {
					t.Fatalf("record %d batch mismatch:\n got %v\nwant %v", i, rec.Batch, batches[i])
				}
			}
		})
	}
}

// TestWALTornTail verifies the truncation-safe replay contract: cutting
// the log at every possible byte boundary inside the last record must
// recover exactly the records before it, and OpenWAL must truncate and
// remain appendable.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := CreateWAL(path, 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	batches := walBatches()
	var sizes []int64
	for _, b := range batches {
		if err := w.Append(b, 0); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, w.Size())
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	recordsBefore := func(cut int64) int {
		n := 0
		for _, s := range sizes {
			if s <= cut {
				n++
			}
		}
		return n
	}
	for cut := sizes[len(sizes)-2] + 1; cut < sizes[len(sizes)-1]; cut += 3 {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.log", cut))
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		records, end, err := ReplayWAL(torn)
		if err != nil {
			t.Fatalf("cut %d: replay failed: %v", cut, err)
		}
		if len(records) != recordsBefore(cut) {
			t.Fatalf("cut %d: got %d records, want %d", cut, len(records), recordsBefore(cut))
		}
		if end != sizes[len(sizes)-2] {
			t.Fatalf("cut %d: clean end %d, want %d", cut, end, sizes[len(sizes)-2])
		}
	}

	// Corrupt CRC mid-frame of the final record: same truncation.
	bad := append([]byte(nil), full...)
	bad[sizes[len(sizes)-2]+4] ^= 0xA5 // CRC field of last frame
	tornPath := filepath.Join(dir, "crc.log")
	if err := os.WriteFile(tornPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	records, end, err := ReplayWAL(tornPath)
	if err != nil || len(records) != len(batches)-1 {
		t.Fatalf("corrupt CRC: records=%d err=%v", len(records), err)
	}
	if end != sizes[len(sizes)-2] {
		t.Fatalf("corrupt CRC: end=%d want %d", end, sizes[len(sizes)-2])
	}

	// OpenWAL truncates the tail and stays appendable.
	w2, records, err := OpenWAL(tornPath, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(batches)-1 {
		t.Fatalf("OpenWAL replayed %d records", len(records))
	}
	if err := w2.Append(graph.Batch{graph.InsNew(9, 10, "x", "y")}, 99); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	records, _, err = ReplayWAL(tornPath)
	if err != nil || len(records) != len(batches) {
		t.Fatalf("after truncate+append: records=%d err=%v", len(records), err)
	}
	if records[len(records)-1].Seq != uint64(len(batches)) {
		t.Fatalf("appended record has seq %d", records[len(records)-1].Seq)
	}
}

// corruptWALPayloads returns CRC-valid but undecodable record payloads
// (record #2, generation 0): a label length near 2^64 (the overflow
// probe) and an implausible update count.
func corruptWALPayloads() map[string][]byte {
	head := func() []byte {
		var p []byte
		p = binary.LittleEndian.AppendUint64(p, 2) // seq (record #2)
		p = binary.LittleEndian.AppendUint64(p, 0) // gen
		return p
	}
	p := head()
	p = binary.AppendUvarint(p, 1)          // one update
	p = append(p, 0)                        // insert
	p = binary.AppendVarint(p, 1)           // from
	p = binary.AppendVarint(p, 2)           // to
	p = binary.AppendUvarint(p, ^uint64(0)) // from-label length: 2^64-1
	return map[string][]byte{
		"huge label length": p,
		"huge update count": binary.AppendUvarint(head(), ^uint64(0)>>1),
	}
}

// frameWALPayload frames a payload as the WAL does: length, CRC, bytes.
func frameWALPayload(payload []byte) []byte {
	var frame []byte
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// TestWALCorruptRecordNeverFatal appends the corruptWALPayloads records
// after one good record and requires recovery to truncate at them rather
// than panic or over-allocate.
func TestWALCorruptRecordNeverFatal(t *testing.T) {
	for name, payload := range corruptWALPayloads() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, err := CreateWAL(path, 0, SyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(graph.Batch{graph.InsNew(1, 2, "a", "b")}, 0); err != nil {
				t.Fatal(err)
			}
			goodEnd := w.Size()
			w.Close()

			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(frameWALPayload(payload)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			records, end, err := ReplayWAL(path)
			if err != nil {
				t.Fatalf("replay must not fail: %v", err)
			}
			if len(records) != 1 || end != goodEnd {
				t.Fatalf("records=%d end=%d, want 1 record ending at %d", len(records), end, goodEnd)
			}
		})
	}
}

func TestStoreCheckpointCycle(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 4, 200, 800)
	s, err := Create(dir, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists = false after Create")
	}
	if _, err := Create(dir, g, Options{}); err == nil {
		t.Fatal("second Create must fail")
	}

	// Log two batches and apply them.
	b1 := graph.Batch{graph.InsNew(10_001, 10_002, "n", "n")}
	b2 := graph.Batch{graph.InsNew(10_002, 10_003, "n", "n")}
	for _, b := range []graph.Batch{b1, b2} {
		if err := s.Append(b, g.Generation()); err != nil {
			t.Fatal(err)
		}
		if err := g.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Reopen: snapshot + replay reconstructs g.
	s2, h, records, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("replayed %d records, want 2", len(records))
	}
	for _, rec := range records {
		if err := h.ApplyBatch(rec.Batch); err != nil {
			t.Fatal(err)
		}
	}
	if !g.Equal(h) {
		t.Fatal("recovered graph differs")
	}

	// Checkpoint folds the WAL into a new snapshot; old files go away.
	if err := s2.Checkpoint(h); err != nil {
		t.Fatal(err)
	}
	if s2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", s2.Epoch())
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(1))); !os.IsNotExist(err) {
		t.Fatal("old snapshot not removed")
	}
	s2.Close()

	_, h2, records, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh WAL has %d records", len(records))
	}
	if !g.Equal(h2) {
		t.Fatal("post-checkpoint recovery differs")
	}
}

func TestOpenMissingStore(t *testing.T) {
	if _, _, _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("want ErrNoStore")
	}
}

func mustCreate(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWALHugeFrameLengthReadsOnlyWhatExists pins the payload read of
// replay and of the replica-log open: a torn frame whose length field
// claims close to maxWALRecord must end the prefix after reading the few
// bytes present, without sizing a buffer by the claimed length.
func TestWALHugeFrameLengthReadsOnlyWhatExists(t *testing.T) {
	var hdr []byte
	hdr = append(hdr, walMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, WALVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, 0)
	data, err := appendFramedRecord(hdr, 1, 0, graph.Batch{graph.InsNew(1, 2, "a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	goodEnd := int64(len(data))
	data = binary.LittleEndian.AppendUint32(data, maxWALRecord-1)
	data = binary.LittleEndian.AppendUint32(data, 0)
	data = append(data, "only a few bytes follow"...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	records, end, _, err := replay(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil || len(records) != 1 || end != goodEnd {
		t.Fatalf("replay = %d records to %d (%v), want 1 to %d", len(records), end, err, goodEnd)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("replay allocated %d bytes for a %d-byte log", grew, len(data))
	}
}
