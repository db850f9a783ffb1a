// Package wal implements Frangipani's per-server write-ahead redo
// log (paper §4). Each Frangipani server owns a private, bounded
// (128 KB), circular log stored inside Petal. Metadata updates are
// described by log records carrying, for each affected 512-byte
// metadata block, the byte changes and a new version number. A
// record is written to the log (group-committed) before the metadata
// blocks themselves are updated in place.
//
// Recovery reads the log, finds its end by the monotonically
// increasing sequence number attached to each 512-byte log block, and
// replays records in order. A change is applied only if the on-disk
// block's version is older than the record's ("recovery never replays
// a log record describing an update that has already been
// completed"). Records are protected by a CRC so a torn or
// half-reclaimed region is skipped rather than misapplied.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"

	"frangipani/internal/bufpool"
	"frangipani/internal/obs"
)

// Geometry constants.
const (
	// BlockSize is the log block size; each carries an 10-byte header.
	BlockSize = 512
	// blockHdr is LSN (8 bytes) + first-record anchor offset (2).
	blockHdr = 10
	// payloadPerBlock is the record stream capacity per log block.
	payloadPerBlock = BlockSize - blockHdr
	// MaxUpdateOffset bounds update data within a metadata block: the
	// last 8 bytes of every 512-byte metadata block hold its version
	// number and may only change through the version mechanism.
	MaxUpdateOffset = 512 - 8
	// DefaultLogSize is the paper's per-server log size.
	DefaultLogSize = 128 << 10
	// recHdrLen is magic(2) + len(4) + seq(8) + crc(4).
	recHdrLen = 18
	recMagic  = 0x4C52 // "LR"
	noAnchor  = 0xFFFF
)

// Errors.
var (
	ErrTooLarge  = errors.New("wal: record exceeds log capacity")
	ErrBadUpdate = errors.New("wal: update touches version trailer or out of bounds")
)

// BlockRegion is the storage a log lives on: a byte range addressed
// from 0, sector-aligned I/O (a window of a Petal virtual disk).
type BlockRegion interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
}

// BlockDev is the device holding the metadata blocks that replay
// writes to (the whole Petal virtual disk).
type BlockDev = BlockRegion

// opWriter is a BlockRegion that can write on behalf of an operation,
// so the log's own device write is traced and accounted as part of the
// operation that forced the flush. Regions without it get plain WriteAt.
type opWriter interface {
	WriteAtOp(op *obs.Span, p []byte, off int64) error
}

// Update describes one sub-block metadata change.
type Update struct {
	Addr int64  // byte address of the 512-byte metadata block
	Off  int    // offset of the change within the block (< 504)
	Data []byte // new bytes
	Ver  uint64 // new version number for the block
}

// BlockVersion reads the version trailer of a 512-byte metadata
// block.
func BlockVersion(block []byte) uint64 {
	return binary.LittleEndian.Uint64(block[MaxUpdateOffset:])
}

// SetBlockVersion writes the version trailer.
func SetBlockVersion(block []byte, v uint64) {
	binary.LittleEndian.PutUint64(block[MaxUpdateOffset:], v)
}

// Log is one server's in-memory view of its private log region.
type Log struct {
	region BlockRegion
	size   int64 // bytes
	blocks int64 // log blocks

	mu       sync.Mutex
	nextSeq  int64
	head     int64 // stream position of next byte to write
	tail     int64 // stream position of oldest unreleased record
	buf      []byte
	bufStart int64  // stream position of buf[0]
	spare    []byte // the buffer the last flush wrote from, for the next to fill
	pending  []recSpan
	reclaim  func(throughSeq int64)
	// reclaiming single-flights the paced background reclaim kicked
	// when occupancy crosses the high-water mark, so writers stop
	// hitting the synchronous log-full wall in the first place.
	reclaiming bool

	// Group commit: at most one region write is in flight; concurrent
	// Flush callers whose bytes it covers piggyback on it instead of
	// issuing their own.
	flushing  bool
	flushDone chan struct{} // made by the first waiter; closed when the in-flight write completes
	flushPend []recSpan     // the flusher's snapshot of pending
	durable   int64         // stream position known durable in the region
	lastFlush int64         // ns timestamp of the last successful flush

	// part remembers what the last successful region write put into the
	// log block it left partly filled: that block's payload up to stream
	// position partEnd. The next write starts there, in that block, and
	// has to write it whole again; it takes the bytes from here instead
	// of reading back from Petal what the log itself wrote a moment ago.
	// Only the flusher touches these (one region write is in flight at a
	// time, ordered by mu), and a failed write leaves them as they were:
	// whatever it tore, the retry rewrites the same block from the same
	// bytes.
	part    [payloadPerBlock]byte
	partEnd int64

	appends        *obs.Counter
	appendBytes    *obs.Counter // record bytes Append accepted
	flushes        *obs.Counter
	wrote          *obs.Counter
	groupMerges    *obs.Counter
	asyncReclaims  *obs.Counter // paced reclaims kicked in the background
	stallReclaims  *obs.Counter // appends that hit the synchronous log-full wall
	maxFlushBlocks *obs.Gauge

	// Observability; set once by SetObs before concurrent use, or
	// left nil/standalone for unwired logs.
	now       obs.NowFunc
	appendLat *obs.Histogram
	flushLat  *obs.Histogram
	groupLat  *obs.Histogram
	jr        *obs.Journal // flight recorder (nil-safe)
}

type recSpan struct {
	seq        int64
	start, end int64 // stream positions
}

// New opens a fresh (logically empty) log over the region. The
// region is not zeroed; sequence numbers distinguish old blocks.
func New(region BlockRegion, size int64) *Log {
	return &Log{
		region:         region,
		size:           size,
		blocks:         size / BlockSize,
		appends:        obs.NewCounter(),
		appendBytes:    obs.NewCounter(),
		flushes:        obs.NewCounter(),
		wrote:          obs.NewCounter(),
		groupMerges:    obs.NewCounter(),
		asyncReclaims:  obs.NewCounter(),
		stallReclaims:  obs.NewCounter(),
		maxFlushBlocks: obs.NewGauge(),
	}
}

// SetObs attaches the log's metrics to a registry under
// "wal.<metric>#<instance>" and enables latency histograms and flush
// spans. Call right after New, before concurrent use; a nil registry
// keeps the standalone counters.
func (l *Log) SetObs(reg *obs.Registry, instance string) {
	if reg == nil {
		return
	}
	l.mu.Lock()
	l.appends = reg.Counter("wal.appends#" + instance)
	l.appendBytes = reg.Counter("wal.append.bytes#" + instance)
	l.flushes = reg.Counter("wal.flushes#" + instance)
	l.wrote = reg.Counter("wal.wrote.bytes#" + instance)
	l.groupMerges = reg.Counter("wal.groupcommit.merges#" + instance)
	l.asyncReclaims = reg.Counter("wal.reclaim.async#" + instance)
	l.stallReclaims = reg.Counter("wal.reclaim.stall#" + instance)
	l.maxFlushBlocks = reg.Gauge("wal.flush.maxblocks#" + instance)
	l.now = reg.Now
	l.appendLat = reg.Histogram("wal.append.latency#" + instance)
	l.flushLat = reg.Histogram("wal.flush.latency#" + instance)
	l.groupLat = reg.Histogram("wal.groupcommit.latency#" + instance)
	l.jr = reg.Journal(instance)
	l.mu.Unlock()
}

// SetReclaim registers the callback invoked when the log fills: the
// owner must make the metadata covered by records up to throughSeq
// durable (writing dirty blocks to Petal) and then call Release.
// Per the paper, "Frangipani reclaims the oldest 25% of the log
// space for new log entries" at that point.
func (l *Log) SetReclaim(f func(throughSeq int64)) {
	l.mu.Lock()
	l.reclaim = f
	l.mu.Unlock()
}

// streamCapacity is the usable byte capacity of the circular record
// stream.
func (l *Log) streamCapacity() int64 { return l.blocks * payloadPerBlock }

// updHdrLen is addr(8) + ver(8) + off(2) + len(2), before each update's
// data.
const updHdrLen = 20

// RecordSize is the number of log bytes the record describing ups
// takes: what Append adds to the stream, and what its caller accounts.
func RecordSize(ups []Update) int {
	n := recHdrLen + 2
	for _, u := range ups {
		n += updHdrLen + len(u.Data)
	}
	return n
}

// checkUpdates rejects a record Append cannot log.
func checkUpdates(ups []Update) error {
	for _, u := range ups {
		if u.Off < 0 || len(u.Data) == 0 || u.Off+len(u.Data) > MaxUpdateOffset {
			return fmt.Errorf("%w: off=%d len=%d", ErrBadUpdate, u.Off, len(u.Data))
		}
	}
	return nil
}

// encodeRecord serializes the record into rec, which is RecordSize(ups)
// long: the body first, then the header with the body's length and CRC.
func encodeRecord(rec []byte, seq int64, ups []Update) {
	binary.LittleEndian.PutUint16(rec[recHdrLen:], uint16(len(ups)))
	pos := recHdrLen + 2
	for _, u := range ups {
		binary.LittleEndian.PutUint64(rec[pos:], uint64(u.Addr))
		binary.LittleEndian.PutUint64(rec[pos+8:], u.Ver)
		binary.LittleEndian.PutUint16(rec[pos+16:], uint16(u.Off))
		binary.LittleEndian.PutUint16(rec[pos+18:], uint16(len(u.Data)))
		pos += updHdrLen + copy(rec[pos+updHdrLen:], u.Data)
	}
	body := rec[recHdrLen:]
	binary.LittleEndian.PutUint16(rec[0:2], recMagic)
	binary.LittleEndian.PutUint32(rec[2:6], uint32(len(body)))
	binary.LittleEndian.PutUint64(rec[6:14], uint64(seq))
	binary.LittleEndian.PutUint32(rec[14:18], crc32.ChecksumIEEE(body))
}

// Append buffers a record describing the updates and returns its
// sequence number. The record is durable only after Flush. If the
// log is too full, the reclaim callback runs synchronously first.
//
// Each update's Data may alias memory the caller goes on to change (the
// file system passes the cached sector itself): Append reads it only
// until it returns, encoding the record straight into the log's buffer,
// so the caller must keep the bytes still — hold the locks that cover
// them — for the call and owes nothing after it.
func (l *Log) Append(ups []Update) (int64, error) {
	if err := checkUpdates(ups); err != nil {
		return 0, err
	}
	need := int64(RecordSize(ups))
	if need > l.streamCapacity()/2 {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, need)
	}
	l.mu.Lock()
	var start int64
	if l.now != nil {
		start = l.now()
	}
	// A flush replaces whole blocks, and a lap later the block the tail
	// is in is the head's: what may not be written over starts where that
	// block does, not at the tail.
	for l.head+need-(l.tail-l.tail%payloadPerBlock) > l.streamCapacity() {
		// Log full: reclaim the oldest quarter. This is the stall
		// backstop — the paced background reclaim below aims to keep
		// writers from ever reaching it.
		l.stallReclaims.Inc()
		target := l.tail + l.streamCapacity()/4
		var through int64
		for _, sp := range l.pending {
			if sp.start < target {
				through = sp.seq
			}
		}
		cb := l.reclaim
		l.jr.Record("wal", "reclaim", "full", uint64(through), l.head-l.tail, "")
		if cb == nil || through == 0 {
			// No reclaimer or nothing reclaimable: drop the oldest
			// quarter accounting anyway (records there must already
			// be released).
			l.dropThroughLocked(target)
			continue
		}
		l.mu.Unlock()
		cb(through)
		l.mu.Lock()
	}
	// Only now: the loop lets go of mu, and another Append may have run.
	seq := l.nextSeq + 1
	l.nextSeq = seq
	l.appends.Inc()
	l.appendBytes.Add(need)
	l.pending = append(l.pending, recSpan{seq: seq, start: l.head, end: l.head + need})
	at := len(l.buf)
	l.buf = slices.Grow(l.buf, int(need))[:at+int(need)]
	encodeRecord(l.buf[at:], seq, ups)
	l.head += need
	l.maybeReclaimLocked()
	if l.now != nil {
		l.appendLat.Record(l.now() - start)
	}
	l.mu.Unlock()
	return seq, nil
}

// maybeReclaimLocked paces log reclamation: when occupancy crosses
// three quarters of capacity, kick ONE background reclaim of the
// oldest quarter instead of waiting for the log to fill and stalling
// the appender synchronously. At high server counts the synchronous
// stalls serialize — every server's writers park behind its own
// log-full flush at roughly the same fill rate — so reclaiming ahead
// of the wall converts a stop-the-world pause into overlapped
// background write-back. Caller holds l.mu.
func (l *Log) maybeReclaimLocked() {
	if l.reclaiming || l.reclaim == nil {
		return
	}
	if l.head-l.tail <= l.streamCapacity()*3/4 {
		return
	}
	target := l.tail + l.streamCapacity()/4
	var through int64
	for _, sp := range l.pending {
		if sp.start < target {
			through = sp.seq
		}
	}
	if through == 0 {
		return
	}
	l.reclaiming = true
	l.asyncReclaims.Inc()
	l.jr.Record("wal", "reclaim", "async", uint64(through), l.head-l.tail, "")
	cb := l.reclaim
	go func() {
		cb(through)
		l.mu.Lock()
		l.reclaiming = false
		l.mu.Unlock()
	}()
}

func (l *Log) dropThroughLocked(pos int64) {
	if pos > l.head {
		pos = l.head
	}
	if pos > l.tail {
		l.tail = pos
	}
	n := 0
	for n < len(l.pending) && l.pending[n].end <= l.tail {
		n++
	}
	l.dropPendingLocked(n)
}

// dropPendingLocked forgets the n oldest pending records, moving the
// rest down: slicing them off the front would walk the array's capacity
// away and have Append allocate a new one every few dozen records.
func (l *Log) dropPendingLocked(n int) {
	l.pending = l.pending[:copy(l.pending, l.pending[n:])]
}

// Release marks all records with seq <= throughSeq as reclaimable:
// their metadata updates have reached their permanent locations.
func (l *Log) Release(throughSeq int64) {
	l.mu.Lock()
	n := 0
	for n < len(l.pending) && l.pending[n].seq <= throughSeq {
		l.tail = l.pending[n].end
		n++
	}
	l.dropPendingLocked(n)
	if len(l.pending) == 0 {
		l.tail = l.head
	}
	l.mu.Unlock()
}

// Flush writes all buffered records to the region (group commit) and
// returns once every record appended before the call is durable
// there. Concurrent callers merge: while one write is in flight,
// later callers wait for it and piggyback if it covered their bytes,
// so N concurrent Flushes cost far fewer than N region writes.
func (l *Log) Flush() error { return l.FlushOp(nil) }

// FlushOp is Flush on behalf of an operation: if this caller ends up
// doing the region write, its wal.flush span is a child of op, and so
// is the write itself (see opWriter) — beside the flush span, not under
// it, so a critical-path profile charges the log's device time to the
// log. Flush is FlushOp(nil).
func (l *Log) FlushOp(op *obs.Span) error {
	l.mu.Lock()
	target := l.head
	l.mu.Unlock()
	return l.flushTo(op, target)
}

func (l *Log) flushTo(op *obs.Span, target int64) error {
	for {
		l.mu.Lock()
		if l.durable >= target {
			l.mu.Unlock()
			return nil
		}
		if l.flushing {
			// Piggyback: wait for the in-flight write, then re-check.
			if l.flushDone == nil {
				l.flushDone = make(chan struct{})
			}
			ch := l.flushDone
			l.groupMerges.Inc()
			l.jr.Record("wal", "groupcommit", "merge", 0, target-l.durable, "")
			now := l.now
			l.mu.Unlock()
			var gstart int64
			if now != nil {
				gstart = now()
			}
			<-ch
			if now != nil {
				l.groupLat.Record(now() - gstart)
			}
			continue
		}
		if len(l.buf) == 0 {
			// Nothing buffered and no write in flight: everything
			// appended before the call is already durable.
			l.mu.Unlock()
			return nil
		}
		buf, start := l.buf, l.bufStart
		l.buf, l.spare = l.spare[:0], nil
		l.bufStart = l.head
		l.flushing = true
		l.flushes.Inc()
		// One write is in flight at a time, so the snapshot has one user.
		l.flushPend = append(l.flushPend[:0], l.pending...)
		pend := l.flushPend
		now := l.now
		l.mu.Unlock()

		sp := op.Child("wal", "flush")
		var fstart int64
		if now != nil {
			fstart = now()
		}
		err := l.writeStream(op, buf, start, pend)
		sp.Done()
		if now != nil {
			l.flushLat.Record(now() - fstart)
		}
		if err != nil {
			l.jr.Record("wal", "flush", "fail", uint64(start), int64(len(buf)), err.Error())
		} else {
			l.jr.Record("wal", "flush", "ok", uint64(start), int64(len(buf)), "")
		}

		l.mu.Lock()
		if err == nil {
			if end := start + int64(len(buf)); end > l.durable {
				l.durable = end
			}
			if l.now != nil {
				l.lastFlush = l.now()
			}
			l.spare = buf
		} else {
			// Put the unwritten bytes back so a retry (after a
			// transient Petal failure) rewrites them; appends during
			// the attempt extended l.buf from start+len(buf).
			l.buf = append(buf, l.buf...)
			l.bufStart = start
		}
		l.flushing = false
		if l.flushDone != nil {
			close(l.flushDone)
			l.flushDone = nil
		}
		l.mu.Unlock()
		if err != nil {
			return err
		}
		// Records appended during the write may still be below target;
		// loop to cover them.
	}
}

// writeStream makes the stream bytes [start, start+len(buf)) durable.
// Affected log blocks are assembled in memory — LSN, anchor, payload —
// and written with one WriteAt per physically contiguous run (at most
// two when the circular log wraps) instead of per-block I/O. op is the
// operation the writes are made for, if any.
func (l *Log) writeStream(op *obs.Span, buf []byte, start int64, pend []recSpan) error {
	firstBlk := start / payloadPerBlock
	lastBlk := (start + int64(len(buf)) - 1) / payloadPerBlock
	nBlks := lastBlk - firstBlk + 1
	// Assemble the run in a pooled buffer: every layer below copies
	// synchronously (the Petal client snapshots write payloads before
	// they reach the carrier), so the buffer is dead once WriteAt
	// returns and steady-state flushing recycles a small working set.
	// Recovery treats zero bytes past the stream end as a clean stop,
	// so the recycled buffer is cleared like a fresh allocation.
	bigp := bufpool.Get(int(nBlks * BlockSize))
	defer bufpool.Put(bigp)
	big := *bigp
	clear(big)
	// Preserve the prior payload of a leading partial block: from memory
	// when the last write ended where this one starts, from
	// the region otherwise (the first flush of a log opened mid-block).
	if start%payloadPerBlock != 0 {
		if l.partEnd == start {
			copy(big[blockHdr:], l.part[:start-firstBlk*payloadPerBlock])
		} else {
			off := firstBlk % l.blocks * BlockSize
			if err := l.region.ReadAt(big[blockHdr:BlockSize], off+blockHdr); err != nil {
				return err
			}
		}
	}
	for b := firstBlk; b <= lastBlk; b++ {
		blk := big[(b-firstBlk)*BlockSize : (b-firstBlk+1)*BlockSize]
		blkStart := b * payloadPerBlock
		blkEnd := blkStart + payloadPerBlock
		binary.LittleEndian.PutUint64(blk[0:8], uint64(b+1)) // LSN, monotone
		binary.LittleEndian.PutUint16(blk[8:10], anchorIn(pend, blkStart, blkEnd))
		lo := max64(blkStart, start)
		hi := min64(blkEnd, start+int64(len(buf)))
		copy(blk[blockHdr+(lo-blkStart):], buf[lo-start:hi-start])
	}
	var written int64
	for idx := int64(0); idx < nBlks; {
		phys := (firstBlk + idx) % l.blocks
		runLen := min64(nBlks-idx, l.blocks-phys)
		run, off := big[idx*BlockSize:(idx+runLen)*BlockSize], phys*BlockSize
		var err error
		if r, ok := l.region.(opWriter); ok {
			err = r.WriteAtOp(op, run, off)
		} else {
			err = l.region.WriteAt(run, off)
		}
		if err != nil {
			return err
		}
		written += runLen * BlockSize
		idx += runLen
	}
	if end := start + int64(len(buf)); end%payloadPerBlock != 0 {
		last := big[(nBlks-1)*BlockSize:]
		copy(l.part[:], last[blockHdr:blockHdr+end-lastBlk*payloadPerBlock])
		l.partEnd = end
	}
	l.wrote.Add(written)
	l.maxFlushBlocks.SetMax(nBlks)
	return nil
}

// anchorIn returns the payload offset of the first record starting
// inside the given stream range, or noAnchor.
func anchorIn(pend []recSpan, blkStart, blkEnd int64) uint16 {
	best := int64(-1)
	for _, sp := range pend {
		if sp.start >= blkStart && sp.start < blkEnd {
			if best == -1 || sp.start < best {
				best = sp.start
			}
		}
	}
	if best == -1 {
		return noAnchor
	}
	return uint16(best - blkStart)
}

// Stats aggregates the log's counters for benchmarks.
type Stats struct {
	// Appends is the number of records appended.
	Appends int64
	// Flushes is the number of group-commit region writes issued.
	Flushes int64
	// BytesWritten is the log bytes written to the region.
	BytesWritten int64
	// GroupMerges counts Flush callers that piggybacked on another
	// caller's in-flight write instead of issuing their own.
	GroupMerges int64
	// AsyncReclaims counts paced reclaims kicked in the background at
	// the high-water mark; StallReclaims counts appends that still hit
	// the synchronous log-full wall (the pacing's failure mode).
	AsyncReclaims int64
	StallReclaims int64
	// MaxFlushBlocks is the largest single flush, in log blocks.
	MaxFlushBlocks int64
}

// Stats returns a snapshot of the log's counters. The counters are
// individually race-safe, so no lock is needed (the old
// implementation read several fields under the log mutex; the
// registry-backed counters made that unnecessary).
func (l *Log) Stats() Stats {
	return Stats{
		Appends:        l.appends.Value(),
		Flushes:        l.flushes.Value(),
		BytesWritten:   l.wrote.Value(),
		GroupMerges:    l.groupMerges.Value(),
		AsyncReclaims:  l.asyncReclaims.Value(),
		StallReclaims:  l.stallReclaims.Value(),
		MaxFlushBlocks: l.maxFlushBlocks.Value(),
	}
}

// FlushHealth reports the write-stall signals for health probing:
// how many stream bytes sit buffered but not yet durable, and the
// timestamp (registry clock, ns) of the last successful flush — 0
// until the first one.
func (l *Log) FlushHealth() (backlogBytes int64, lastFlushNs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head - l.durable, l.lastFlush
}

// Pending returns the sequence range of records not yet released,
// and whether any exist.
func (l *Log) Pending() (low, high int64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		return 0, 0, false
	}
	return l.pending[0].seq, l.pending[len(l.pending)-1].seq, true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// RecoveredRecord is one decoded log record.
type RecoveredRecord struct {
	Seq     int64
	Updates []Update
}

// Scan reads a log region and returns the valid records found, in
// sequence order. It tolerates torn and wrapped logs: blocks are
// ordered by LSN, the end of the log is where the LSN sequence
// breaks, parsing starts at record anchors, and CRC-invalid records
// are skipped with a re-anchor at the next block.
func Scan(region BlockRegion, size int64) ([]RecoveredRecord, error) {
	blocks := size / BlockSize
	type blkInfo struct {
		lsn    int64
		anchor uint16
		data   []byte
	}
	// One bulk read of the whole region: a log is only 128 KB, and
	// per-block round trips to Petal would dominate recovery time.
	whole := make([]byte, blocks*BlockSize)
	if err := region.ReadAt(whole, 0); err != nil {
		return nil, err
	}
	var infos []blkInfo
	for i := int64(0); i < blocks; i++ {
		blk := whole[i*BlockSize : (i+1)*BlockSize]
		lsn := int64(binary.LittleEndian.Uint64(blk[0:8]))
		if lsn == 0 {
			continue // never written
		}
		infos = append(infos, blkInfo{
			lsn:    lsn,
			anchor: binary.LittleEndian.Uint16(blk[8:10]),
			data:   blk[blockHdr:],
		})
	}
	if len(infos) == 0 {
		return nil, nil
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].lsn < infos[b].lsn })
	// Keep only the contiguous LSN run ending at the maximum: older
	// detached runs are fully-reclaimed space.
	end := len(infos) - 1
	start := end
	for start > 0 && infos[start-1].lsn == infos[start].lsn-1 {
		start--
	}
	infos = infos[start:]

	// Parse the concatenated payload stream from the first anchor.
	stream := make([]byte, 0, len(infos)*payloadPerBlock)
	anchors := []int{} // stream offsets where records may start
	for i, inf := range infos {
		if inf.anchor != noAnchor && int(inf.anchor) < payloadPerBlock {
			anchors = append(anchors, i*payloadPerBlock+int(inf.anchor))
		}
		stream = append(stream, inf.data...)
	}
	var out []RecoveredRecord
	seen := make(map[int64]bool)
	for ai := 0; ai < len(anchors); ai++ {
		pos := anchors[ai]
		for pos+recHdrLen <= len(stream) {
			if binary.LittleEndian.Uint16(stream[pos:pos+2]) != recMagic {
				break
			}
			blen := int(binary.LittleEndian.Uint32(stream[pos+2 : pos+6]))
			seq := int64(binary.LittleEndian.Uint64(stream[pos+6 : pos+14]))
			crc := binary.LittleEndian.Uint32(stream[pos+14 : pos+18])
			if blen < 2 || pos+recHdrLen+blen > len(stream) {
				break
			}
			body := stream[pos+recHdrLen : pos+recHdrLen+blen]
			if crc32.ChecksumIEEE(body) != crc {
				break // torn record; re-anchor at a later block
			}
			if !seen[seq] {
				rec, err := decodeBody(seq, body)
				if err == nil {
					out = append(out, rec)
					seen[seq] = true
				}
			}
			pos += recHdrLen + blen
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out, nil
}

func decodeBody(seq int64, body []byte) (RecoveredRecord, error) {
	rec := RecoveredRecord{Seq: seq}
	n := int(binary.LittleEndian.Uint16(body[0:2]))
	pos := 2
	for i := 0; i < n; i++ {
		if pos+20 > len(body) {
			return rec, errors.New("wal: truncated update header")
		}
		u := Update{
			Addr: int64(binary.LittleEndian.Uint64(body[pos : pos+8])),
			Ver:  binary.LittleEndian.Uint64(body[pos+8 : pos+16]),
			Off:  int(binary.LittleEndian.Uint16(body[pos+16 : pos+18])),
		}
		dlen := int(binary.LittleEndian.Uint16(body[pos+18 : pos+20]))
		pos += 20
		if pos+dlen > len(body) {
			return rec, errors.New("wal: truncated update data")
		}
		u.Data = append([]byte(nil), body[pos:pos+dlen]...)
		pos += dlen
		rec.Updates = append(rec.Updates, u)
	}
	return rec, nil
}

// Replay applies recovered records to the metadata device: for each
// block a record updates, the changes land only if the block's
// on-disk version is older than the record's, preserving the paper's
// "at most one log can hold an uncompleted update for any given
// block" invariant. All of one record's updates to a block share a
// version and are applied together (a record is atomic per block).
// It returns how many blocks were updated.
func Replay(records []RecoveredRecord, dev BlockDev) (applied int, err error) {
	for _, rec := range records {
		// Group this record's updates by block, preserving order.
		byBlock := make(map[int64][]Update)
		var order []int64
		for _, u := range rec.Updates {
			if _, seen := byBlock[u.Addr]; !seen {
				order = append(order, u.Addr)
			}
			byBlock[u.Addr] = append(byBlock[u.Addr], u)
		}
		for _, addr := range order {
			ups := byBlock[addr]
			blk := make([]byte, BlockSize)
			if err := dev.ReadAt(blk, addr); err != nil {
				return applied, err
			}
			if BlockVersion(blk) >= ups[0].Ver {
				continue // already completed
			}
			for _, u := range ups {
				copy(blk[u.Off:], u.Data)
			}
			SetBlockVersion(blk, ups[0].Ver)
			if err := dev.WriteAt(blk, addr); err != nil {
				return applied, err
			}
			applied++
		}
	}
	return applied, nil
}
