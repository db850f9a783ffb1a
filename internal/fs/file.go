package fs

import (
	"io"
	"slices"
	"sync"

	"frangipani/internal/bufpool"
	"frangipani/internal/cache"
	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/petal"
)

// File is an open handle on a regular file. Its operations run for
// the principal of the view it was opened through.
type File struct {
	fs   *FS
	inum int64
	ra   stream
	wb   wstream
}

func newFile(fs *FS, inum int64) *File {
	f := &File{fs: fs, inum: inum}
	f.ra.window = petal.ChunkSize
	f.ra.idle.L = &f.ra.mu
	return f
}

// Open returns a handle for the regular file at path, following
// symlinks.
func (fs *FS) Open(path string) (*File, error) {
	if err := fs.usable(); err != nil {
		return nil, err
	}
	var f *File
	err := fs.traced("open", func(op *obs.Span) error {
		inum, err := fs.namei(op, path, true)
		if err != nil {
			return err
		}
		info, err := fs.statInum(op, inum)
		if err != nil {
			return err
		}
		if info.Type == TypeDir {
			return ErrIsDir
		}
		f = newFile(fs, inum)
		return nil
	})
	return f, err
}

// OpenFile opens path, creating it first if create is set and it
// does not exist.
func (fs *FS) OpenFile(path string, create bool) (*File, error) {
	f, err := fs.Open(path)
	if err == ErrNotExist && create {
		if err := fs.Create(path); err != nil && err != ErrExist {
			return nil, err
		}
		return fs.Open(path)
	}
	return f, err
}

func (fs *FS) statInum(op *obs.Span, inum int64) (Info, error) {
	var info Info
	err := fs.withLocks(op, []lockReq{{InodeLock(inum), lockservice.Shared}}, func() error {
		_, in, err := fs.loadInode(op, inum)
		if err != nil {
			return err
		}
		info = Info{Inum: inum, Type: in.Type, Size: in.Size, Nlink: int(in.Nlink),
			Mtime: in.Mtime, Ctime: in.Ctime, Atime: in.Atime}
		fs.mu.Lock()
		if at, ok := fs.atimes[inum]; ok && at > info.Atime {
			info.Atime = at
		}
		fs.mu.Unlock()
		return nil
	})
	return info, err
}

// Inum returns the file's inode number.
func (f *File) Inum() int64 { return f.inum }

// Size returns the file's current size.
func (f *File) Size() (int64, error) {
	var info Info
	err := f.fs.traced("stat", func(op *obs.Span) (err error) {
		info, err = f.fs.statInum(op, f.inum)
		return err
	})
	return info.Size, err
}

// filePageAddr maps a file byte offset to the Petal address of its
// 4 KB page and the offset within that page. ok is false when no
// block backs the offset (a hole).
func (fs *FS) filePageAddr(in Inode, off int64) (pageAddr, inPage int64, ok bool) {
	slot, inBlock := blockFor(off)
	if slot >= 0 {
		if in.Small[slot] == 0 {
			return 0, 0, false
		}
		return fs.lay.SmallAddr(in.Small[slot] - 1), inBlock, true
	}
	if in.Large == 0 || inBlock >= fs.lay.LargeBlockSize {
		return 0, 0, false
	}
	base := fs.lay.LargeAddr(in.Large - 1)
	return base + (inBlock &^ (BlockSize - 1)), inBlock & (BlockSize - 1), true
}

// inodeHasPage reports whether the page at Petal address addr lies in
// one of in's blocks.
func (fs *FS) inodeHasPage(in Inode, addr int64) bool {
	if in.Large != 0 {
		if base := fs.lay.LargeAddr(in.Large - 1); addr >= base && addr < base+fs.lay.LargeBlockSize {
			return true
		}
	}
	for _, s := range in.Small {
		if s != 0 && fs.lay.SmallAddr(s-1) == addr {
			return true
		}
	}
	return false
}

// ensureBlock allocates the block backing offset off. New small
// blocks are entered into the cache zero-filled and dirty so stale
// on-disk bytes from a previous owner never become visible; freed
// large blocks were decommitted, so Petal already reads them as
// zeros.
func (fs *FS) ensureBlock(t *txn, in *Inode, off int64, isDir bool) error {
	slot, _ := blockFor(off)
	if slot >= 0 {
		class := classDataSmall
		if isDir {
			class = classMetaSmall
		}
		idx, err := fs.allocObj(t, class)
		if err != nil {
			return err
		}
		in.Small[slot] = idx + 1
		if !isDir {
			addr := fs.lay.SmallAddr(idx)
			// Note: the inode lock id is derivable only by the caller;
			// data pages are owned by the file's inode lock.
			e := fs.data.Insert(addr, nil, t.pageOwner)
			fs.data.MarkDirty(e, 0)
		}
		return nil
	}
	if in.Large == 0 {
		idx, err := fs.allocObj(t, classLarge)
		if err != nil {
			return err
		}
		in.Large = idx + 1
	}
	if _, inBlock := blockFor(off); inBlock >= fs.lay.LargeBlockSize {
		return ErrTooBig
	}
	return nil
}

// WriteAt writes p at byte offset off, allocating blocks as needed.
// Data is staged in the buffer cache (not logged); metadata changes
// (allocation, size, mtime) are logged.
func (f *File) WriteAt(p []byte, off int64) (n int, err error) {
	err = f.fs.traced("write", func(op *obs.Span) error {
		var e error
		n, e = f.writeAt(op, p, off)
		return e
	})
	return n, err
}

func (f *File) writeAt(op *obs.Span, p []byte, off int64) (int, error) {
	fs := f.fs
	if err := fs.usable(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, ErrInval
	}
	if off+int64(len(p)) > DirectBytes+fs.lay.LargeBlockSize {
		return 0, ErrTooBig
	}
	fs.chargeOp(len(p))
	fs.accountBytes(op, len(p), 0)
	lock := InodeLock(f.inum)
	err := fs.withTxn(op, []lockReq{{lock, lockservice.Exclusive}}, func(t *txn) error {
		t.pageOwner = lock
		e, in, err := fs.loadInode(op, f.inum)
		if err != nil {
			return err
		}
		if in.Type != TypeFile {
			return ErrIsDir
		}
		// Stack scratch for a 64 KB write: the pages it touched, and those
		// of them the write stream hands off.
		var pbuf, rbuf [16]*cache.Entry
		pages := pbuf[:0]
		pos := 0
		for pos < len(p) {
			cur := off + int64(pos)
			if _, _, ok := fs.filePageAddr(in, cur); !ok {
				if err := fs.ensureBlock(t, &in, cur, false); err != nil {
					return err
				}
			}
			pageAddr, inPage, ok := fs.filePageAddr(in, cur)
			if !ok {
				return ErrTooBig
			}
			n := int(int64(BlockSize) - inPage)
			if n > len(p)-pos {
				n = len(p) - pos
			}
			// A page entirely overwritten needs no read from Petal.
			pe, cached := fs.data.Lookup(pageAddr)
			if !cached {
				if inPage == 0 && n == BlockSize {
					pe = fs.data.Insert(pageAddr, nil, lock)
				} else {
					pe, err = fs.readData(op, pageAddr, lock)
					if err != nil {
						return err
					}
				}
			}
			fs.data.Mutate(func() { copy(pe.Data[inPage:], p[pos:pos+n]) })
			fs.data.MarkDirty(pe, 0)
			pages = append(pages, pe)
			pos += n
		}
		if off+int64(len(p)) > in.Size {
			// Growing past EOF: bytes in [oldSize, off) within already
			// allocated blocks must read as zeros, not as stale data
			// left from before an earlier truncate.
			fs.zeroRange(op, in, in.Size, off, lock)
			in.Size = off + int64(len(p))
		}
		in.Mtime = int64(fs.w.Clock.Now())
		t.putInode(e, in)
		if ready, hi := f.wb.wrote(off, off+int64(len(p)), pages, rbuf[:0]); len(ready) > 0 && fs.flushBehind(ready) {
			f.wb.handedOff(hi)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// zeroRange clears [lo, hi) in every allocated page of the file
// (holes already read as zeros). Called under the file's exclusive
// lock when the size grows over a previously truncated region.
func (fs *FS) zeroRange(op *obs.Span, in Inode, lo, hi int64, lock uint64) {
	for cur := lo; cur < hi; {
		pageAddr, inPage, ok := fs.filePageAddr(in, cur)
		n := int64(BlockSize) - inPage
		if cur+n > hi {
			n = hi - cur
		}
		if ok {
			pe, cached := fs.data.Lookup(pageAddr)
			if !cached {
				var err error
				pe, err = fs.readData(op, pageAddr, lock)
				if err != nil {
					return
				}
			}
			fs.data.Mutate(func() { clear(pe.Data[inPage : inPage+n]) })
			fs.data.MarkDirty(pe, 0)
		}
		cur += n
	}
}

// ReadAt reads into p from byte offset off. Holes read as zeros;
// reads past EOF return io.EOF. A handle that is read sequentially
// keeps a window of pages fetched ahead of it (see stream).
func (f *File) ReadAt(p []byte, off int64) (n int, err error) {
	err = f.fs.traced("read", func(op *obs.Span) error {
		var e error
		n, e = f.readAt(op, p, off)
		return e
	})
	return n, err
}

func (f *File) readAt(op *obs.Span, p []byte, off int64) (int, error) {
	fs := f.fs
	if err := fs.usable(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, ErrInval
	}
	fs.chargeOp(len(p))
	fs.accountBytes(op, 0, len(p))
	lock := InodeLock(f.inum)
	raMax := int64(fs.cfg.ReadAhead) * BlockSize

	// If our lock was revoked while a prefetch is still in flight, the
	// in-flight I/O is already wasted — and, as in the paper's UFS-
	// derived implementation, the reader cannot issue its next lock
	// request until that work completes ("the readers are doing extra
	// work, they cannot make lock requests at the same rate as the
	// writer", §9.4).
	if raMax > 0 && fs.clerk.Held(lock) == lockservice.None {
		f.ra.drain()
	}

	n := 0
	var readErr error
	err := fs.withLocks(op, []lockReq{{lock, lockservice.Shared}}, func() error {
		in, err := fs.loadForRead(op, f.inum, off, int64(len(p)))
		if err != nil {
			return err
		}
		if in.Type == TypeDir {
			return ErrIsDir
		}
		if off >= in.Size {
			readErr = io.EOF
			return nil
		}
		want := int64(len(p))
		if off+want > in.Size {
			want = in.Size - off
			readErr = io.EOF
		}
		// Top the window up before reading, so the prefetch overlaps
		// whatever this read has to wait for.
		var mark int64
		if raMax > 0 {
			var lo, hi int64
			lo, hi, mark = f.ra.advance(off, off+want, in.Size, raMax)
			if lo < hi {
				f.prefetch(in, lo, hi)
			}
		}
		for int64(n) < want {
			cur := off + int64(n)
			pageAddr, inPage, ok := fs.filePageAddr(in, cur)
			// Up to the next page boundary; a hole reports no in-page
			// offset, so take the file offset's own.
			chunk := int(BlockSize - cur%BlockSize)
			if int64(chunk) > want-int64(n) {
				chunk = int(want - int64(n))
			}
			if !ok {
				// Hole: zero fill up to the next page boundary.
				clear(p[n : n+chunk])
				n += chunk
				continue
			}
			pe, cached := fs.data.Lookup(pageAddr)
			if !cached {
				// Cluster the miss: the rest of this request comes in
				// with the page (the mirror image of clustered
				// write-back).
				var buf [16]int64 // stack scratch for a 64 KB request; longer ones spill to the heap
				var own bool
				pe, own, err = fs.fetchData(op, f.ra.via(fs), fs.pageAddrs(buf[:0], in, cur-inPage, off+want), lock)
				if err != nil {
					return err
				}
				if own && cur < mark {
					f.ra.restart(off + want)
				}
			}
			copy(p[n:n+chunk], pe.Data[inPage:])
			n += chunk
		}
		// Approximate atime (§2.1): remembered in memory only and
		// folded into the inode the next time it is logged, "to avoid
		// doing a metadata write for every data read".
		fs.mu.Lock()
		fs.atimes[f.inum] = int64(fs.w.Clock.Now())
		fs.mu.Unlock()
		return nil
	})
	if err != nil {
		return n, err
	}
	return n, readErr
}

// loadForRead is loadInode for a read of [off, off+n). A miss on the
// inode sector of a file whose lock a revoke took away from this server
// — the read after a handoff — goes to specFill.
func (fs *FS) loadForRead(op *obs.Span, inum, off, n int64) (Inode, error) {
	addr := fs.lay.InodeAddr(inum)
	e, ok := fs.meta.Lookup(addr)
	if !ok {
		if h, hinted := fs.takeHint(inum); hinted {
			return fs.specFill(op, inum, h, off, n)
		}
		var err error
		if e, err = fs.fillMeta(op, addr, InodeLock(inum)); err != nil {
			return Inode{}, err
		}
	}
	return decodeInode(e.Data)
}

// specFill fetches the inode sector of file inum and, in the same ReadV,
// the pages of [off, off+n) that h — the block map the inode had when a
// revoke took the file's lock from this server — maps, those of them
// that are neither cached nor claimed (claimPages). It returns the inode
// as read. The caller holds the file's lock and has held it since before
// the read went out. So if the inode still maps the blocks h does, they
// have been the file's since the grant: only a holder of the file's lock
// could have written them, and the last writer flushed before it let go.
// The pages read are the file's current data and are kept. If the map
// changed, a block may be another file's now, written under another
// lock: the pages are dropped, and the read fetches what the inode maps,
// as any miss does.
func (fs *FS) specFill(op *obs.Span, inum int64, h Inode, off, n int64) (Inode, error) {
	owner, addr := InodeLock(inum), fs.lay.InodeAddr(inum)
	var room [petal.ChunkSize / BlockSize]int64 // stack scratch for a 64 KB read
	var theirs [4]chan struct{}
	addrs := fs.pageAddrs(room[:0], h, off&^(BlockSize-1), min(off+n, h.Size))
	mine, done, _ := fs.claimPages(addrs, addrs[:0], theirs[:0])
	if len(mine) == 0 {
		e, err := fs.fillMeta(op, addr, owner)
		if err != nil {
			return Inode{}, err
		}
		return decodeInode(e.Data)
	}
	defer fs.unclaim(mine, done)
	fs.m.specFills.Inc()
	fs.acct.CacheMiss(op.Ctx().Principal, 1)
	sp := op.Child("cache", "fill")
	defer sp.Done()
	// Pooled scratch: Fill copies into the caches' own blocks.
	secp, bufp := bufpool.Get(SectorSize), bufpool.Get(len(mine)*BlockSize)
	defer bufpool.Put(secp)
	defer bufpool.Put(bufp)
	var extRoom [5]petal.ReadExtent // the sector and a run or a few
	exts := pageRuns(append(extRoom[:0], petal.ReadExtent{Off: addr, Dst: *secp}), mine, *bufp)
	if err := fs.pc.For(sp).ReadV(fs.vd, exts); err != nil {
		return Inode{}, err
	}
	fs.m.bytesRead.Add(int64(len(*bufp)))
	e, _ := fs.meta.Fill(addr, *secp, owner)
	in, err := decodeInode(e.Data)
	if err != nil {
		return Inode{}, err
	}
	if in.Small != h.Small || in.Large != h.Large {
		fs.m.specDropped.Inc()
		return in, nil
	}
	fs.fillCache(mine, *bufp, owner)
	return in, nil
}

// keepHint records, as a revoke takes file inum's lock from this server,
// the file's block map while its inode sector is still cached. A hint is
// dropped when a read takes it, when this server frees the inode, and
// when there are metaCacheCap others.
func (fs *FS) keepHint(inum int64) {
	e, ok := fs.meta.Peek(fs.lay.InodeAddr(inum))
	if !ok {
		return
	}
	in, err := decodeInode(e.Data)
	if err != nil || in.Type != TypeFile || in.Size == 0 {
		return
	}
	fs.mu.Lock()
	if _, ok := fs.hints[inum]; !ok && len(fs.hints) >= metaCacheCap {
		for k := range fs.hints {
			delete(fs.hints, k)
			break
		}
	}
	fs.hints[inum] = Inode{Small: in.Small, Large: in.Large, Size: in.Size}
	fs.mu.Unlock()
}

// takeHint removes and returns file inum's hint, if it has one.
func (fs *FS) takeHint(inum int64) (Inode, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	h, ok := fs.hints[inum]
	delete(fs.hints, inum)
	return h, ok
}

// pageAddrs appends to buf the Petal addresses of the file's pages in
// [lo, hi), holes left out. lo is page-aligned.
func (fs *FS) pageAddrs(buf []int64, in Inode, lo, hi int64) []int64 {
	for off := lo; off < hi; off += BlockSize {
		if a, _, ok := fs.filePageAddr(in, off); ok {
			buf = append(buf, a)
		}
	}
	return buf
}

// stream is the read-ahead state of one open file: where its reader is
// expected next, how far ahead of it pages have been requested, and
// how far ahead to stay. Five rules move it.
//
//   - Continue: a read at next (a new handle expects offset 0), or at
//     offset 0, where every whole-file read begins, belongs to the
//     stream. Before it reads, every whole chunk between the mark and one
//     window past the reader — or the file's tail — is requested, each
//     chunk as a fetch of its own. No hysteresis: a reader that pauses,
//     as every client that alternates reading with other work does,
//     finds the whole window landed when it returns. No slivers: a
//     reader of small records asks for the next chunk when all of it
//     fits under the window, not for 4 KB more of it on each of sixteen
//     reads.
//   - Ramp: each top-up doubles the window, from one Petal chunk up to
//     Config.ReadAhead: a stream has to prove itself before it is
//     trusted with many chunks, and then keeps that many disks busy.
//   - Inherit: a read at offset 0 that follows a read up to the end of
//     the file keeps the window: the handle has just streamed the whole
//     file, which is all the proof the next pass can give. Any other
//     read at offset 0 (a new handle, a pass given up half-way) starts
//     at one chunk.
//   - Restart: a read anywhere else starts the stream over at one chunk
//     and prefetches nothing; so does a read that had to go to Petal
//     itself for a page below the mark, because what was prefetched is
//     gone (evicted, invalidated by a revoke, or discarded by one).
//   - Discard: a prefetch runs without the file's lock; if the lock is
//     gone when its data arrives, the data is dropped (fillPages) and
//     the reader drains what is still in flight before it asks for the
//     lock again (§9.4).
//
// Pages are claimed in fs.inflight before they are fetched, chunk by
// chunk (the unit wstream hands off), so a reader that catches up with
// a prefetch waits for the chunk it needs — not for the window, and not
// by reading the same pages again.
type stream struct {
	mu     sync.Mutex
	idle   sync.Cond // busy fell to 0; L is &mu
	next   int64     // the offset that continues the stream
	ahead  int64     // the mark: every page of [next, ahead) was cached or claimed
	window int64     // bytes to stay ahead of the reader
	busy   int       // chunk fetches in flight
}

// advance records a read of [off, end) of a file of size bytes and
// returns the range to prefetch now (lo < hi, or none), with the mark
// as the read found it. limit caps the window.
func (s *stream) advance(off, end, size, limit int64) (lo, hi, mark int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mark = s.ahead
	last := s.next
	s.next = end
	switch {
	case off == 0:
		s.ahead, mark = end, 0
		if last < size { // the pass before did not run to the end of the file
			s.window = petal.ChunkSize
		}
	case off != last:
		s.ahead, s.window = end, petal.ChunkSize
		return 0, 0, 0
	}
	if s.window > limit {
		s.window = limit
	}
	if s.ahead < end {
		s.ahead = end
	}
	// Up to one window past the reader in whole fetches: chunks, or
	// windows where the cap is less than a chunk.
	lo, hi = s.ahead, end+s.window
	if hi >= size {
		hi = size
	} else {
		hi -= hi % min(s.window, petal.ChunkSize)
	}
	if hi <= lo {
		return 0, 0, mark
	}
	s.ahead = hi
	s.window = min(2*s.window, limit)
	return lo, hi, mark
}

// restart records that the reader fetched below the mark itself: from
// end on nothing is prefetched and the window starts over.
func (s *stream) restart(end int64) {
	s.mu.Lock()
	s.ahead, s.window = end, petal.ChunkSize
	s.mu.Unlock()
}

// via is the Petal view the reader's own fetches go through: fs.overlapped
// while prefetches of the stream are under way — they may not have
// reached the Petal client yet, and the fetch is not alone beside them —
// and fs.pc otherwise.
func (s *stream) via(fs *FS) *petal.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy > 0 {
		return fs.overlapped
	}
	return fs.pc
}

// drain waits until no prefetch of this handle is in flight.
func (s *stream) drain() {
	s.mu.Lock()
	for s.busy > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// prefetch fetches the pages of [lo, hi) that are neither cached nor
// claimed, in the background, without the lock and for no operation (it
// outlives the read that started it): one claim and one fetch per
// 64 KB-aligned span of the file, so each chunk's pages exist as soon as
// its own bytes have arrived. A chunk with nothing to fetch starts no
// goroutine.
func (f *File) prefetch(in Inode, lo, hi int64) {
	fs := f.fs
	for lo < hi {
		end := min(lo&^(petal.ChunkSize-1)+petal.ChunkSize, hi)
		// Stack scratch: a cached stream tops up without allocating.
		var buf [petal.ChunkSize / BlockSize]int64
		var theirs [4]chan struct{}
		addrs := fs.pageAddrs(buf[:0], in, lo&^(BlockSize-1), end)
		mine, done, _ := fs.claimPages(addrs, addrs[:0], theirs[:0])
		lo = end
		if len(mine) == 0 {
			continue
		}
		fetch := slices.Clone(mine) // the fetch outlives this call and buf
		f.ra.mu.Lock()
		f.ra.busy++
		f.ra.mu.Unlock()
		go func() {
			_, _ = fs.fillPages(fs.overlapped, fetch, done, InodeLock(f.inum), false)
			f.ra.mu.Lock()
			if f.ra.busy--; f.ra.busy == 0 {
				f.ra.idle.Broadcast()
			}
			f.ra.mu.Unlock()
		}()
	}
}

// wstream is the write-behind state of one open file, the write side of
// stream: where its writer is expected next and up to where what it
// wrote has been handed to the flush workers. Four rules move it.
//
//   - Continue: a write at next (a new handle expects offset 0) belongs
//     to the stream.
//   - Trigger: once the stream has filled whole Petal chunks past the
//     mark — 64 KB-aligned spans of the file, every page of them written
//     by this stream — their pages go to FS.flushBehind as one WriteV
//     batch and the mark moves up. If that many batches are already out
//     (Config.FlushParallelism, per server) the mark stays and the span
//     goes with the next one: the writer never waits. Nothing else
//     starts a flush: a write anywhere else restarts the stream there
//     and hands off nothing, so random overwrites and files that end
//     before their first chunk boundary cost no flush and no goroutine.
//   - Join: a flight claims its pages in fs.flights before the write that
//     started it returns, and they stay dirty until it lands. Everyone
//     else who wants them in Petal — fsync on any handle, the sync
//     demon — waits for the flight instead of sending them again, and a
//     truncate or remove waits before it frees their blocks.
//   - Revoke: flushOwner is such a joiner, so the lock is not released
//     while a flight covering it is out.
type wstream struct {
	mu   sync.Mutex
	next int64          // the offset that continues the stream
	mark int64          // chunk-aligned: nothing at or past it has been handed off
	pend []*cache.Entry // the pages of [mark, next), which the stream wrote, in file order
}

// wrote records a write of [off, end) that dirtied pages, one per 4 KB
// page it touched, and appends to ready the pages of the whole chunks
// it completes past the mark, up to hi (or none); handedOff moves the
// mark there once they are on their way.
func (s *wstream) wrote(off, end int64, pages, ready []*cache.Entry) ([]*cache.Entry, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	restart := off != s.next
	if restart {
		s.mark = (off + petal.ChunkSize - 1) &^ (petal.ChunkSize - 1)
		s.pend = s.pend[:0]
	}
	s.next = end
	at := off &^ (BlockSize - 1)
	for _, pe := range pages {
		// A write that starts inside the page the last one ended in
		// brings that page again.
		if at >= s.mark && (len(s.pend) == 0 || s.pend[len(s.pend)-1] != pe) {
			s.pend = append(s.pend, pe)
		}
		at += BlockSize
	}
	hi := end &^ (petal.ChunkSize - 1)
	n := int((hi - s.mark) / BlockSize)
	if restart || n <= 0 || n > len(s.pend) {
		return ready, 0
	}
	return append(ready, s.pend[:n]...), hi
}

func (s *wstream) handedOff(hi int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := int((hi - s.mark) / BlockSize); n > 0 && n <= len(s.pend) {
		s.pend = s.pend[:copy(s.pend, s.pend[n:])]
		s.mark = hi
	}
}

// Truncate sets the file's size, freeing (and for the large block,
// decommitting) storage beyond it.
func (f *File) Truncate(size int64) error {
	return f.fs.traced("truncate", func(op *obs.Span) error { return f.truncate(op, size) })
}

func (f *File) truncate(op *obs.Span, size int64) error {
	fs := f.fs
	if err := fs.usable(); err != nil {
		return err
	}
	if size < 0 || size > DirectBytes+fs.lay.LargeBlockSize {
		return ErrInval
	}
	fs.chargeOp(0)
	lock := InodeLock(f.inum)
	return fs.withTxn(op, []lockReq{{lock, lockservice.Exclusive}}, func(t *txn) error {
		t.pageOwner = lock
		e, in, err := fs.loadInode(op, f.inum)
		if err != nil {
			return err
		}
		if in.Type != TypeFile {
			return ErrIsDir
		}
		if size >= in.Size {
			// Growing: any allocated bytes in the new region are stale
			// remnants and must read as zeros.
			fs.zeroRange(op, in, in.Size, size, lock)
			in.Size = size
			in.Mtime = int64(fs.w.Clock.Now())
			t.putInode(e, in)
			return nil
		}
		old := in
		var frees []freeSpec
		for slot := 0; slot < NumDirect; slot++ {
			blockStart := int64(slot) * BlockSize
			if in.Small[slot] != 0 && blockStart >= size {
				frees = append(frees, freeSpec{classDataSmall, in.Small[slot] - 1})
				fs.data.Invalidate(fs.lay.SmallAddr(in.Small[slot] - 1))
				in.Small[slot] = 0
			}
		}
		freeLarge := in.Large != 0 && size <= DirectBytes
		var largeIdx int64 = -1
		if freeLarge {
			largeIdx = in.Large - 1
			frees = append(frees, freeSpec{classLarge, largeIdx})
			in.Large = 0
			// Its dirty pages are dead; written back later they would land
			// on whoever owns the block by then.
			base := fs.lay.LargeAddr(largeIdx)
			for _, pe := range fs.data.DirtyByOwner(lock) {
				if pe.Addr >= base && pe.Addr < base+fs.lay.LargeBlockSize {
					fs.data.Invalidate(pe.Addr)
				}
			}
		}
		if len(frees) > 0 {
			fs.awaitFlights(old)
			if err := fs.freeObjs(t, frees); err != nil {
				return err
			}
		}
		// Zero the now-dead tail of the boundary page so future
		// extension reads zeros.
		if size%BlockSize != 0 {
			if pageAddr, inPage, ok := fs.filePageAddr(in, size); ok {
				if pe, err := fs.readData(op, pageAddr, lock); err == nil {
					fs.data.Mutate(func() { clear(pe.Data[inPage:]) })
					fs.data.MarkDirty(pe, 0)
				}
			}
		}
		in.Size = size
		in.Mtime = int64(fs.w.Clock.Now())
		t.putInode(e, in)
		if largeIdx >= 0 {
			_ = fs.pc.For(op).Decommit(fs.vd, fs.lay.LargeAddr(largeIdx), fs.lay.LargeBlockSize)
		}
		return nil
	})
}

// Sync is fsync, the user's way to force the log: "Only after a log
// record is written to Petal does the server modify the actual metadata
// in its permanent locations. The permanent locations are updated
// periodically (roughly every 30 seconds) by the update demon" (§4), so
// what makes an update durable is its log record, and "a user can get
// better consistency semantics by calling fsync at suitable
// checkpoints". Sync forces the log through the newest record that
// touched the file's dirty sectors (nothing if they are clean or it is
// durable already) and, beside it, writes back the file's dirty pages,
// which are not logged — one Petal round trip — and stops. The sectors
// stay dirty, with their sequence numbers, for whoever writes metadata
// in place: the update demon, a revoke (FS.flushOwner, the same two jobs
// plus the sectors), log reclaim, eviction, Unmount. The data side waits
// for write-behind already under way instead of repeating it, and owes
// only what was written before the call (see FS.flushData).
func (f *File) Sync() error {
	return f.fs.traced("fsync", f.fsync)
}

func (f *File) fsync(op *obs.Span) error {
	fs := f.fs
	if err := fs.usable(); err != nil {
		return err
	}
	lock := InodeLock(f.inum)
	return fs.flushWorkers(2, func(i int) error {
		if i == 0 {
			return fs.ensureLogFlushed(op, fs.meta.MaxSeq(fs.meta.DirtyByOwner(lock)))
		}
		return fs.flushData(op, fs.pc, fs.data.DirtyByOwner(lock))
	})
}
