package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"testing"
)

// refEncodeRecord is the encoder as it stood before Append wrote records
// straight into the log's buffer: the reference for what a record's
// bytes are.
func refEncodeRecord(seq int64, ups []Update) ([]byte, error) {
	rec := make([]byte, recHdrLen+2, RecordSize(ups))
	binary.LittleEndian.PutUint16(rec[recHdrLen:], uint16(len(ups)))
	for _, u := range ups {
		if u.Off < 0 || len(u.Data) == 0 || u.Off+len(u.Data) > MaxUpdateOffset {
			return nil, fmt.Errorf("%w: off=%d len=%d", ErrBadUpdate, u.Off, len(u.Data))
		}
		var h [updHdrLen]byte
		binary.LittleEndian.PutUint64(h[0:8], uint64(u.Addr))
		binary.LittleEndian.PutUint64(h[8:16], u.Ver)
		binary.LittleEndian.PutUint16(h[16:18], uint16(u.Off))
		binary.LittleEndian.PutUint16(h[18:20], uint16(len(u.Data)))
		rec = append(rec, h[:]...)
		rec = append(rec, u.Data...)
	}
	body := rec[recHdrLen:]
	binary.LittleEndian.PutUint16(rec[0:2], recMagic)
	binary.LittleEndian.PutUint32(rec[2:6], uint32(len(body)))
	binary.LittleEndian.PutUint64(rec[6:14], uint64(seq))
	binary.LittleEndian.PutUint32(rec[14:18], crc32.ChecksumIEEE(body))
	return rec, nil
}

// someUpdates makes n updates of varied sizes, offsets and contents.
func someUpdates(n int) []Update {
	ups := make([]Update, n)
	for i := range ups {
		data := make([]byte, 1+i*37%200)
		for j := range data {
			data[j] = byte(i*31 + j)
		}
		ups[i] = Update{Addr: int64(i+1) * 512, Off: i * 13 % 300, Data: data, Ver: uint64(i + 2)}
	}
	return ups
}

// TestRecordBytesUnchanged: what Append puts into the log's stream is,
// byte for byte, what the old encoder built in a buffer of its own.
func TestRecordBytesUnchanged(t *testing.T) {
	l := New(newMemRegion(DefaultLogSize), DefaultLogSize)
	var want []byte
	for _, n := range []int{1, 3, 20} {
		ups := someUpdates(n)
		seq, err := l.Append(ups)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := refEncodeRecord(seq, ups)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec) != RecordSize(ups) {
			t.Fatalf("%d updates: reference record is %d bytes, RecordSize says %d", n, len(rec), RecordSize(ups))
		}
		want = append(want, rec...)
	}
	if !bytes.Equal(l.buf, want) {
		t.Fatalf("the log buffers %d bytes that differ from the reference encoder's %d", len(l.buf), len(want))
	}
}

// TestAppendCopiesBeforeReturn: Append's updates may alias memory the
// caller changes as soon as it returns; the record holds what was there
// during the call.
func TestAppendCopiesBeforeReturn(t *testing.T) {
	region := newMemRegion(DefaultLogSize)
	l := New(region, DefaultLogSize)
	sector := make([]byte, BlockSize)
	for i := range sector {
		sector[i] = byte(i)
	}
	want := append([]byte(nil), sector[40:140]...)
	if _, err := l.Append([]Update{{Addr: 1024, Off: 40, Data: sector[40:140], Ver: 1}}); err != nil {
		t.Fatal(err)
	}
	for i := range sector {
		sector[i] = 0xEE
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Scan(region, DefaultLogSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Updates) != 1 || !bytes.Equal(recs[0].Updates[0].Data, want) {
		t.Fatalf("scan after the source was scribbled on: %+v", recs)
	}
	dev := newMemRegion(4096)
	if n, err := Replay(recs, dev); err != nil || n != 1 {
		t.Fatalf("replay applied %d blocks, err %v", n, err)
	}
	if !bytes.Equal(dev.b[1024+40:1024+140], want) {
		t.Fatal("replay wrote bytes changed after Append returned")
	}
}

// appendTurn is one turn of the benchmark's wal drive: sixteen one-update
// records of an inode-sized change, a flush, and the release of what was
// flushed.
func appendTurn(tb testing.TB, l *Log, ups []Update) {
	var seq int64
	for range 16 {
		ups[0].Ver++
		var err error
		if seq, err = l.Append(ups); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		tb.Fatal(err)
	}
	l.Release(seq)
}

// TestAppendAllocs: once the log's buffers have grown to what a flush
// interval needs, appending, flushing and releasing allocate nothing —
// the record is encoded in place, and a flush hands its buffer back.
func TestAppendAllocs(t *testing.T) {
	l := New(newMemRegion(DefaultLogSize), DefaultLogSize)
	ups := []Update{{Addr: 4096, Off: 0, Data: make([]byte, 128), Ver: 1}}
	for range 4 {
		appendTurn(t, l, ups)
	}
	if n := testing.AllocsPerRun(200, func() { appendTurn(t, l, ups) }); n != 0 {
		t.Fatalf("sixteen appends, a flush and a release allocate %v times, want 0", n)
	}
}

// BenchmarkAppend is the host cost of one Append in that rhythm; the
// flush and release every sixteenth are included, as in the benchmark's
// wal.append_ns.
func BenchmarkAppend(b *testing.B) {
	l := New(newMemRegion(DefaultLogSize), DefaultLogSize)
	ups := []Update{{Addr: 4096, Off: 0, Data: make([]byte, 128), Ver: 1}}
	var seq int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		ups[0].Ver++
		seq, _ = l.Append(ups)
		if i%16 == 0 {
			_ = l.Flush() // a memory region cannot fail
			l.Release(seq)
		}
	}
}

// fillExactly builds a tiny log with the reclaimer out of the way (none
// is set, so nothing is paced and nothing is called), appends and
// flushes records of assorted sizes, releases the first released of
// them — which leaves the tail in the middle of a block for most values
// — and goes on appending until little room is left, whichever way room
// is counted; a last record of lastLen data bytes then goes in. It
// returns the log, its region, what was appended by sequence number, and
// whether the last Append moved the tail to make room, that is, judged
// the log over-full.
func fillExactly(t *testing.T, size int64, released, lastLen int) (l *Log, region *memRegion, recs map[int64][]Update, overfull bool) {
	t.Helper()
	region = newMemRegion(size)
	l = New(region, size)
	recs = make(map[int64][]Update)
	add := func(n int) {
		var ups []Update
		for ; n > 0; n -= min(n, 400) { // an update holds under a sector
			data := make([]byte, min(n, 400))
			for i := range data {
				data[i] = byte(len(recs)*7 + i + n)
			}
			ups = append(ups, Update{Addr: int64(len(recs)+1) * 512, Off: len(recs) % 8, Data: data, Ver: uint64(len(recs) + 1)})
		}
		seq, err := l.Append(ups)
		if err != nil {
			t.Fatal(err)
		}
		recs[seq] = ups
	}
	for i := 0; i < released+2; i++ {
		add(30 + i*37%200)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Release(int64(released))
	for l.streamCapacity()-(l.head-l.tail) > 2*payloadPerBlock {
		add(30 + len(recs)*53%200)
		if len(recs)%3 == 0 {
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	tail := l.tail
	add(lastLen)
	return l, region, recs, l.tail != tail
}

// TestExactlyFullLogScans settles whether Append's full check leaves
// the slack the circular region needs (it did not: it counted from the
// tail, and with the tail inside a block the head came round into that
// block and wrote over the oldest records not yet released). For a tail
// anywhere in its block, the log is filled to the last byte Append
// accepts without making room, flushed, and scanned. Every record not
// released must come back intact, and whatever else comes back (a
// released record that shares the tail's block is still whole on the
// region, and replay skips it by version) must be a record as it was
// appended, never the remains of one.
func TestExactlyFullLogScans(t *testing.T) {
	const size = 8 * BlockSize
	midBlock := 0
	for released := 1; released <= 12; released++ {
		// The longest last record Append takes without making room.
		lastLen := sort.Search(2*payloadPerBlock, func(n int) bool {
			_, _, _, overfull := fillExactly(t, size, released, n+1)
			return overfull
		})
		if lastLen == 0 || lastLen == 2*payloadPerBlock {
			t.Fatalf("released %d: no last record fills the log", released)
		}
		l, region, recs, _ := fillExactly(t, size, released, lastLen)
		if l.tail%payloadPerBlock != 0 {
			midBlock++
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := Scan(region, size)
		if err != nil {
			t.Fatal(err)
		}
		found := make(map[int64]bool)
		for _, r := range got {
			want, ok := recs[r.Seq]
			same := ok && len(r.Updates) == len(want)
			for i := 0; same && i < len(want); i++ {
				g, w := r.Updates[i], want[i]
				same = g.Addr == w.Addr && g.Off == w.Off && g.Ver == w.Ver && bytes.Equal(g.Data, w.Data)
			}
			if !same {
				t.Fatalf("released %d: scan returned record %d, which is not what was appended: %+v", released, r.Seq, r)
			}
			found[r.Seq] = true
		}
		for seq := int64(released) + 1; seq <= int64(len(recs)); seq++ {
			if !found[seq] {
				t.Errorf("released %d, tail %d bytes into its block, %d of %d bytes in use: unreleased record %d is not in the scan",
					released, l.tail%payloadPerBlock, l.head-l.tail, l.streamCapacity(), seq)
			}
		}
	}
	if midBlock < 6 {
		t.Fatalf("only %d cases had the tail inside a block", midBlock)
	}
}
