package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"incgraph/internal/graph"
)

// FuzzWALReplay feeds arbitrary bytes to the WAL decoder. Replay must
// never panic or fail past the header, and the prefix it accepts must be
// self-consistent: replaying just that prefix, or the re-encoding of the
// records it yielded, gives back the same records.
func FuzzWALReplay(f *testing.F) {
	var hdr []byte
	hdr = append(hdr, walMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, WALVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, 7)
	good := hdr
	for i, b := range []graph.Batch{
		{graph.InsNew(1, 2, "a", "b")},
		{graph.Del(1, 2), graph.Ins(2, 1), graph.InsNew(-5, 1<<40, "", "long label")},
		{},
	} {
		var err error
		if good, err = appendFramedRecord(good, uint64(i+1), uint64(7+i), b); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(good)
	f.Add(hdr)
	f.Add(good[:len(good)-3])
	oneRecord, _ := appendFramedRecord(bytes.Clone(hdr), 1, 7, graph.Batch{graph.InsNew(1, 2, "a", "b")})
	for _, payload := range corruptWALPayloads() {
		f.Add(append(bytes.Clone(oneRecord), frameWALPayload(payload)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records, end, startGen, err := replay(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadWAL) {
				t.Fatalf("replay error %v is not ErrBadWAL", err)
			}
			return
		}
		if end < walHeaderSize || end > int64(len(data)) {
			t.Fatalf("clean end %d outside [%d, %d]", end, walHeaderSize, len(data))
		}
		again, end2, _, err := replay(bytes.NewReader(data[:end]))
		if err != nil || end2 != end || !reflect.DeepEqual(again, records) {
			t.Fatalf("replaying the accepted prefix: %d records to %d (%v), want %d to %d", len(again), end2, err, len(records), end)
		}
		enc := bytes.Clone(data[:walHeaderSize])
		for _, r := range records {
			if enc, err = appendFramedRecord(enc, r.Seq, r.Gen, r.Batch); err != nil {
				t.Fatalf("re-encoding record %d: %v", r.Seq, err)
			}
		}
		again, end3, gen3, err := replay(bytes.NewReader(enc))
		if err != nil || end3 != int64(len(enc)) || gen3 != startGen || !reflect.DeepEqual(again, records) {
			t.Fatalf("replaying the re-encoded records: %d records (%v), want %d", len(again), err, len(records))
		}
	})
}

// FuzzSnapshotRead feeds arbitrary bytes to the snapshot decoder, both as
// given and with every segment CRC recomputed (so mutations reach the
// segment decoder and LoadShard instead of stopping at the checksum). A
// snapshot either fails with ErrBadSnapshot or loads a consistent graph:
// every edge is recorded at both endpoints, and the graph survives a
// write/read round trip unchanged.
func FuzzSnapshotRead(f *testing.F) {
	for _, g := range []*graph.Graph{testGraph(f, 2, 100, 400), testGraph(f, 1, 12, 20)} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		for _, bad := range corruptSnapshots(buf.Bytes()) {
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotRead(t, data)
		if fixed := withSegmentCRCs(data); fixed != nil {
			checkSnapshotRead(t, fixed)
		}
	})
}

func checkSnapshotRead(t *testing.T, data []byte) {
	g, err := ReadSnapshot(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("read error %v is not ErrBadSnapshot", err)
		}
		return
	}
	g.Edges(func(e graph.Edge) bool {
		found := false
		g.Predecessors(e.To, func(u graph.NodeID) bool {
			found = u == e.From
			return !found
		})
		if !g.HasNode(e.To) || !found {
			t.Fatalf("edge (%d,%d) is not recorded at its head", e.From, e.To)
		}
		return true
	})
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatalf("re-encoding a loaded snapshot: %v", err)
	}
	h, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("reading back a re-encoded snapshot: %v", err)
	}
	if !h.Equal(g) || h.Generation() != g.Generation() {
		t.Fatal("snapshot round trip changed the graph")
	}
}

// withSegmentCRCs returns a copy of data with every segment's directory
// CRC set to the checksum of the bytes it covers, or nil when the
// manifest does not parse.
func withSegmentCRCs(data []byte) []byte {
	h, err := readSnapHeader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil
	}
	dir := 8 + 4 + 4 + 8 + 8 + 8 + 4
	for _, l := range h.labels {
		dir += 4 + len(graph.LabelOf(l))
	}
	out := bytes.Clone(data)
	for s, seg := range h.segments {
		crc := crc32.ChecksumIEEE(data[seg.offset : seg.offset+seg.length])
		binary.LittleEndian.PutUint32(out[dir+20*s+16:], crc)
	}
	return out
}
