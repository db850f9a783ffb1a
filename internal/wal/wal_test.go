package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// memRegion is an in-memory BlockRegion for tests.
type memRegion struct{ b []byte }

func newMemRegion(size int64) *memRegion { return &memRegion{b: make([]byte, size)} }

func (m *memRegion) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.b)) {
		return fmt.Errorf("memRegion: out of range off=%d len=%d", off, len(p))
	}
	copy(p, m.b[off:])
	return nil
}

func (m *memRegion) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.b)) {
		return fmt.Errorf("memRegion: out of range off=%d len=%d", off, len(p))
	}
	copy(m.b[off:], p)
	return nil
}

func upd(addr int64, off int, ver uint64, data ...byte) Update {
	return Update{Addr: addr, Off: off, Data: data, Ver: ver}
}

func TestAppendFlushScanRoundTrip(t *testing.T) {
	region := newMemRegion(DefaultLogSize)
	l := New(region, DefaultLogSize)
	var want []RecoveredRecord
	for i := 0; i < 10; i++ {
		ups := []Update{
			upd(int64(i)*512, i, uint64(i+1), byte(i), byte(i+1)),
			upd(int64(i+100)*512, 0, uint64(i+1), 0xAB),
		}
		seq, err := l.Append(ups)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, RecoveredRecord{Seq: seq, Updates: ups})
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Scan(region, DefaultLogSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || len(got[i].Updates) != len(want[i].Updates) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
		for j := range want[i].Updates {
			w, g := want[i].Updates[j], got[i].Updates[j]
			if w.Addr != g.Addr || w.Off != g.Off || w.Ver != g.Ver || !bytes.Equal(w.Data, g.Data) {
				t.Fatalf("record %d update %d mismatch: %+v vs %+v", i, j, g, w)
			}
		}
	}
}

func TestUnflushedRecordsNotScanned(t *testing.T) {
	region := newMemRegion(DefaultLogSize)
	l := New(region, DefaultLogSize)
	if _, err := l.Append([]Update{upd(0, 0, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	got, err := Scan(region, DefaultLogSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("scanned %d records before flush", len(got))
	}
}

func TestReplayVersionGating(t *testing.T) {
	dev := newMemRegion(1 << 20)
	// Block at addr 1024 already at version 5.
	blk := make([]byte, BlockSize)
	SetBlockVersion(blk, 5)
	if err := dev.WriteAt(blk, 1024); err != nil {
		t.Fatal(err)
	}
	records := []RecoveredRecord{
		{Seq: 1, Updates: []Update{upd(1024, 0, 4, 0xAA)}}, // stale: skipped
		{Seq: 2, Updates: []Update{upd(1024, 1, 6, 0xBB)}}, // newer: applied
		{Seq: 3, Updates: []Update{upd(2048, 2, 1, 0xCC)}}, // fresh block: applied
		{Seq: 4, Updates: []Update{upd(1024, 3, 6, 0xDD)}}, // same ver as block now: skipped
	}
	applied, err := Replay(records, dev)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("applied %d updates, want 2", applied)
	}
	got := make([]byte, BlockSize)
	if err := dev.ReadAt(got, 1024); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0xBB || got[3] != 0 {
		t.Fatalf("block state %v: stale or duplicate update applied", got[:4])
	}
	if BlockVersion(got) != 6 {
		t.Fatalf("version = %d, want 6", BlockVersion(got))
	}
}

func TestIdempotentReplay(t *testing.T) {
	region := newMemRegion(DefaultLogSize)
	dev := newMemRegion(1 << 20)
	l := New(region, DefaultLogSize)
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]Update{upd(int64(i)*512, 0, uint64(i+1), byte(0xF0+i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Scan(region, DefaultLogSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(recs, dev); err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), dev.b...)
	// Replaying again (e.g. two recovery attempts) changes nothing.
	if n, err := Replay(recs, dev); err != nil || n != 0 {
		t.Fatalf("second replay applied %d updates, err=%v", n, err)
	}
	if !bytes.Equal(snapshot, dev.b) {
		t.Fatal("second replay changed device state")
	}
}

func TestCircularWrapAndReclaim(t *testing.T) {
	const size = 8 << 10 // small log: 16 blocks
	region := newMemRegion(size)
	l := New(region, size)
	var released atomic.Int64 // the callback also runs on the log's background reclaimer
	l.SetReclaim(func(through int64) {
		_ = l.Flush()
		l.Release(through)
		released.Store(through)
	})
	// Append far more than capacity; reclaim must be driven.
	data := bytes.Repeat([]byte{0xEE}, 100)
	var lastSeq int64
	for i := 0; i < 500; i++ {
		seq, err := l.Append([]Update{{Addr: int64(i) * 512, Off: 0, Data: data, Ver: uint64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = seq
	}
	if released.Load() == 0 {
		t.Fatal("reclaim callback never ran")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Scanning must at least see the most recent records, in order.
	recs, err := Scan(region, size)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records after wrap")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatal("records out of order after wrap")
		}
	}
	if recs[len(recs)-1].Seq != lastSeq {
		t.Fatalf("newest record %d missing (got %d)", lastSeq, recs[len(recs)-1].Seq)
	}
}

func TestTornLogRecordSkipped(t *testing.T) {
	region := newMemRegion(DefaultLogSize)
	l := New(region, DefaultLogSize)
	big := bytes.Repeat([]byte{7}, 400) // record spans blocks
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]Update{{Addr: int64(i) * 512, Off: 0, Data: big, Ver: uint64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle of record 2's body (flip bytes in block 1).
	region.b[BlockSize+100] ^= 0xFF
	recs, err := Scan(region, DefaultLogSize)
	if err != nil {
		t.Fatal(err)
	}
	seqs := map[int64]bool{}
	for _, r := range recs {
		seqs[r.Seq] = true
	}
	if seqs[0] {
		t.Fatal("impossible seq 0")
	}
	// The corrupted record must be absent; later records must survive
	// via re-anchoring.
	corruptSurvived := 0
	for _, r := range recs {
		for _, u := range r.Updates {
			if !bytes.Equal(u.Data, big) {
				corruptSurvived++
			}
		}
	}
	if corruptSurvived != 0 {
		t.Fatal("corrupted record decoded with wrong data")
	}
	if len(recs) < 2 {
		t.Fatalf("only %d records survived; re-anchoring failed", len(recs))
	}
}

func TestBadUpdateRejected(t *testing.T) {
	l := New(newMemRegion(DefaultLogSize), DefaultLogSize)
	// Touching the version trailer region is rejected.
	_, err := l.Append([]Update{upd(0, MaxUpdateOffset-1, 1, 1, 2)})
	if !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("err = %v, want ErrBadUpdate", err)
	}
	_, err = l.Append([]Update{{Addr: 0, Off: 0, Data: nil, Ver: 1}})
	if !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("empty data: err = %v, want ErrBadUpdate", err)
	}
}

func TestRecordTooLarge(t *testing.T) {
	const size = 4 << 10
	l := New(newMemRegion(size), size)
	var ups []Update
	for i := 0; i < 10; i++ {
		ups = append(ups, Update{Addr: int64(i) * 512, Off: 0, Data: bytes.Repeat([]byte{1}, 400), Ver: 1})
	}
	if _, err := l.Append(ups); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestGroupCommit(t *testing.T) {
	region := newMemRegion(DefaultLogSize)
	l := New(region, DefaultLogSize)
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]Update{upd(int64(i)*512, 0, uint64(i+1), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != 20 || st.Flushes != 1 {
		t.Fatalf("appends=%d flushes=%d, want 20/1 (group commit)", st.Appends, st.Flushes)
	}
	// 20 small records (~50 bytes) fit in ~3 blocks; far fewer than 20
	// block writes must have happened.
	if st.BytesWritten > 5*BlockSize {
		t.Fatalf("wrote %d bytes for 20 records; group commit ineffective", st.BytesWritten)
	}
}

// syncedRegion is a memRegion safe for concurrent WriteAt/ReadAt,
// with a per-write delay standing in for device latency so flushes
// genuinely overlap with appends.
type syncedRegion struct {
	mu sync.Mutex
	m  *memRegion
}

func (s *syncedRegion) ReadAt(p []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.ReadAt(p, off)
}

func (s *syncedRegion) WriteAt(p []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(200 * time.Microsecond)
	return s.m.WriteAt(p, off)
}

func TestConcurrentFlushGroupCommit(t *testing.T) {
	mem := newMemRegion(DefaultLogSize)
	region := &syncedRegion{m: mem}
	l := New(region, DefaultLogSize)
	const (
		workers   = 8
		perWorker = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				_, err := l.Append([]Update{upd(int64(n)*512, 0, uint64(n+1), byte(n), byte(n>>8))})
				if err != nil {
					errs <- err
					return
				}
				// Every caller demands durability, like fsync-heavy
				// clients; group commit must merge them.
				if err := l.Flush(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	total := int64(workers * perWorker)
	if st.Appends != total {
		t.Fatalf("appends = %d, want %d", st.Appends, total)
	}
	// With 8 concurrent committers every region write should carry
	// several callers: far fewer physical flushes than Flush calls.
	if st.Flushes >= total {
		t.Fatalf("flushes = %d for %d Flush calls; no group commit", st.Flushes, total)
	}
	if st.GroupMerges == 0 {
		t.Fatal("no Flush caller ever piggybacked on an in-flight write")
	}
	t.Logf("appends=%d flushes=%d merges=%d maxFlushBlocks=%d",
		st.Appends, st.Flushes, st.GroupMerges, st.MaxFlushBlocks)

	// Durability: every record must be recoverable, in order, and
	// replay onto a fresh device must apply each exactly once.
	recs, err := Scan(mem, DefaultLogSize)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != total {
		t.Fatalf("scanned %d records, want %d", len(recs), total)
	}
	seen := make(map[int64]bool)
	for i, r := range recs {
		if i > 0 && r.Seq <= recs[i-1].Seq {
			t.Fatalf("records out of order at %d: %d after %d", i, r.Seq, recs[i-1].Seq)
		}
		if len(r.Updates) != 1 {
			t.Fatalf("record %d has %d updates, want 1", i, len(r.Updates))
		}
		seen[r.Updates[0].Addr] = true
	}
	if int64(len(seen)) != total {
		t.Fatalf("recovered %d distinct updates, want %d", len(seen), total)
	}
	dev := newMemRegion(int64(total+10) * 512)
	applied, err := Replay(recs, dev)
	if err != nil {
		t.Fatal(err)
	}
	if applied != int(total) {
		t.Fatalf("replay applied %d updates, want %d", applied, total)
	}
}

func TestFlushErrorKeepsRecordsBuffered(t *testing.T) {
	mem := newMemRegion(DefaultLogSize)
	fr := &failingRegion{m: mem, failWrites: true}
	l := New(fr, DefaultLogSize)
	if _, err := l.Append([]Update{upd(0, 0, 1, 0xAA)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err == nil {
		t.Fatal("flush succeeded against failing region")
	}
	// The storage came back; a retried Flush must still write the
	// record that failed the first time.
	fr.failWrites = false
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Scan(mem, DefaultLogSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Updates[0].Data[0] != 0xAA {
		t.Fatalf("record lost across transient flush failure: %+v", recs)
	}
}

type failingRegion struct {
	m          *memRegion
	failWrites bool
}

func (f *failingRegion) ReadAt(p []byte, off int64) error { return f.m.ReadAt(p, off) }

func (f *failingRegion) WriteAt(p []byte, off int64) error {
	if f.failWrites {
		return errors.New("injected write failure")
	}
	return f.m.WriteAt(p, off)
}

func TestBlockVersionHelpers(t *testing.T) {
	blk := make([]byte, BlockSize)
	SetBlockVersion(blk, 0xDEADBEEF)
	if BlockVersion(blk) != 0xDEADBEEF {
		t.Fatal("version round trip failed")
	}
	if binary.LittleEndian.Uint64(blk[MaxUpdateOffset:]) != 0xDEADBEEF {
		t.Fatal("version not in trailer")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(addr int64, off uint16, ver uint64, data []byte) bool {
		o := int(off) % (MaxUpdateOffset - 1)
		if len(data) == 0 {
			data = []byte{1}
		}
		if len(data) > MaxUpdateOffset-o {
			data = data[:MaxUpdateOffset-o]
		}
		u := Update{Addr: addr &^ 511, Off: o, Data: data, Ver: ver}
		ups := []Update{u}
		rec := make([]byte, RecordSize(ups))
		encodeRecord(rec, 7, ups)
		got, err := decodeBody(7, rec[recHdrLen:])
		if err != nil || len(got.Updates) != 1 {
			return false
		}
		g := got.Updates[0]
		return g.Addr == u.Addr && g.Off == u.Off && g.Ver == u.Ver && bytes.Equal(g.Data, u.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScanEmptyLog(t *testing.T) {
	recs, err := Scan(newMemRegion(DefaultLogSize), DefaultLogSize)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty log scan: %d records, err=%v", len(recs), err)
	}
}

// countingRegion counts the reads the log issues against its region.
type countingRegion struct {
	*memRegion
	reads int
}

func (c *countingRegion) ReadAt(p []byte, off int64) error {
	c.reads++
	return c.memRegion.ReadAt(p, off)
}

// TestFlushMidBlockReadsNothingBack: small records leave the log's last
// block partly filled, so nearly every flush starts in the middle of the
// block the one before ended in. The log rewrites that block from what
// it remembers having put there: it never reads its region — across
// wraps and reclaims — and a log that crashes after any flush
// scans back exactly the records flushed so far.
func TestFlushMidBlockReadsNothingBack(t *testing.T) {
	const size = 8 << 10 // 16 blocks: the 300 flushes below wrap it several times
	region := &countingRegion{memRegion: newMemRegion(size)}
	l := New(region, size)
	midBlock := 0
	for i := 1; i <= 300; i++ {
		l.mu.Lock()
		if l.head%payloadPerBlock != 0 {
			midBlock++
		}
		l.mu.Unlock()
		// 1 to 3 records of 40 to 129 bytes: flushes of less and of more
		// than a block, starting at every kind of offset.
		for k := 0; k <= i%3; k++ {
			data := bytes.Repeat([]byte{byte(i)}, 1+(i*37+k*11)%90)
			if _, err := l.Append([]Update{{Addr: int64(i) * 512, Off: k, Data: data, Ver: uint64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		// Reclaim the way the file system does, well ahead of the head:
		// keep the last 30 records (under half the log), in bursts.
		if _, hi, ok := unreleased(l); ok && i%7 == 0 {
			l.Release(hi - 30)
		}
		// "Crash": what a recovering server would find in the region now.
		recs, err := Scan(region.memRegion, size)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, ok := unreleased(l)
		if !ok {
			continue
		}
		have := make(map[int64]bool, len(recs))
		for _, r := range recs {
			have[r.Seq] = true
		}
		for seq := lo; seq <= hi; seq++ {
			if !have[seq] {
				t.Fatalf("after flush %d the region lacks record %d (unreleased: %d..%d)", i, seq, lo, hi)
			}
		}
	}
	if midBlock < 250 {
		t.Fatalf("only %d of 300 flushes started mid-block: the test no longer exercises the case", midBlock)
	}
	if region.reads != 0 {
		t.Fatalf("the log read its region %d times for %d mid-block flushes", region.reads, midBlock)
	}
}

// unreleased returns the sequence range of l's records not yet
// released, and whether any exist.
func unreleased(l *Log) (low, high int64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		return 0, 0, false
	}
	return l.pending[0].seq, l.pending[len(l.pending)-1].seq, true
}

// TestFlushMidBlockAfterFailedWrite: a region write that fails leaves
// the remembered block as it was, so the retry rewrites the block from
// the same bytes and nothing flushed before is lost.
func TestFlushMidBlockAfterFailedWrite(t *testing.T) {
	mem := newMemRegion(DefaultLogSize)
	fr := &failingRegion{m: mem}
	l := New(fr, DefaultLogSize)
	for i := 1; i <= 3; i++ {
		if _, err := l.Append([]Update{upd(int64(i)*512, 0, uint64(i), byte(i))}); err != nil {
			t.Fatal(err)
		}
		fr.failWrites = i == 2
		if err := l.Flush(); (err != nil) != fr.failWrites {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	recs, err := Scan(mem, DefaultLogSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("scanned %d records after a failed and a retried mid-block flush, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) || r.Updates[0].Data[0] != byte(i+1) {
			t.Fatalf("record %d came back as %+v", i+1, r)
		}
	}
}
