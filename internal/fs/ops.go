package fs

import (
	"cmp"
	"errors"
	"slices"
	"strings"

	"frangipani/internal/cache"
	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
)

// maxRetries bounds the §5 retry loop ("it releases the locks and
// loops back to repeat phase one").
const maxRetries = 16

// maxSymlinkDepth bounds symlink chains during resolution.
const maxSymlinkDepth = 8

// Info describes a file for Stat.
type Info struct {
	Inum  int64
	Type  FileType
	Size  int64
	Nlink int
	Mtime int64
	Ctime int64
	Atime int64
}

// lockReq is one lock an operation needs.
type lockReq struct {
	id   uint64
	mode lockservice.Mode
}

// withLocks implements §5's deadlock-avoidance protocol for an
// operation that changes nothing: the caller has determined (phase one)
// which locks it needs; withLocks acquires them in order, runs fn (which
// must re-validate what phase one read and may return ErrRetry) and
// releases everything. It builds no transaction and allocates nothing:
// a cached Stat or ReadAt pays for one sticky lock and its own work.
func (fs *FS) withLocks(op *obs.Span, reqs []lockReq, fn func() error) error {
	var buf [stackLocks]lockReq
	held, err := fs.lockAll(op, append(buf[:0], reqs...))
	if err != nil {
		return err
	}
	err = fn()
	fs.unlockAll(held)
	return err
}

// withTxn is withLocks for an operation that may log: it additionally
// holds the global backup barrier lock in shared mode (§8), hands fn
// the transaction its updates go into and commits it before the locks
// are released. The transaction comes from the server's free list, or is
// new, and goes back to it emptied once its sectors are unpinned and its
// extra locks released: a transaction taken again holds no entry, range
// or lock of the one before. The log holds nothing of it either: Append
// copies the updates, which point into the sectors, not into t.
func (fs *FS) withTxn(op *obs.Span, reqs []lockReq, fn func(t *txn) error) error {
	var buf [stackLocks]lockReq
	held, err := fs.lockAll(op, append(append(buf[:0], reqs...), lockReq{LockBarrier, lockservice.Shared}))
	if err != nil {
		return err
	}
	t, ok := fs.txns.Take()
	if !ok {
		t = new(txn)
		t.reset()
	}
	t.fs, t.op = fs, op
	err = fn(t)
	if err == nil {
		err = t.commit()
	}
	fs.meta.Unpin(t.held...) // committed or given up, the sectors are let go of
	t.releaseSegs()
	t.reset()
	fs.txns.Put(t)
	fs.unlockAll(held)
	return err
}

// stackLocks is how many lock requests withLocks and withTxn order on
// their own stack; rename, the widest fixed set, takes five with the
// barrier, and a longer list (ReadDirPlus) spills to the heap.
const stackLocks = 8

// lockAll sorts reqs (the caller's copy, its to reorder), folds requests for one lock into
// one at the strongest mode, and acquires each in turn. It returns the
// locks held, for unlockAll; on an error it has given back what it got.
func (fs *FS) lockAll(op *obs.Span, reqs []lockReq) ([]lockReq, error) {
	if len(reqs) > 1 {
		slices.SortFunc(reqs, func(a, b lockReq) int { return cmp.Compare(a.id, b.id) })
	}
	held := reqs[:0]
	for _, r := range reqs {
		if n := len(held); n > 0 && held[n-1].id == r.id {
			held[n-1].mode = max(held[n-1].mode, r.mode)
			continue
		}
		held = append(held, r)
	}
	for i, r := range held {
		if err := fs.lock(op, r.id, r.mode); err != nil {
			fs.unlockAll(held[:i])
			return nil, err
		}
	}
	return held, nil
}

// unlockAll gives locks back in the reverse of the order lockAll took
// them in (sticky: the grants stay cached at the clerk).
func (fs *FS) unlockAll(held []lockReq) {
	for i := len(held) - 1; i >= 0; i-- {
		fs.clerk.Unlock(held[i].id)
	}
}

// retrying runs fn for op until it stops returning ErrRetry.
func (fs *FS) retrying(op *obs.Span, fn func(op *obs.Span) error) error {
	for i := 0; i < maxRetries; i++ {
		err := fn(op)
		if !errors.Is(err, ErrRetry) {
			return err
		}
		fs.m.retries.Inc()
	}
	return ErrRetry
}

// ---- inode access ----

// loadInode reads and decodes an inode under its (already held)
// lock.
func (fs *FS) loadInode(op *obs.Span, inum int64) (Inode, error) {
	e, err := fs.inodeEntry(op, inum)
	if err != nil {
		return Inode{}, err
	}
	return fs.inodeOf(e)
}

// inodeEntry returns inode inum's sector, pinned; the caller holds the
// inode's lock. A miss on the sector of a directory whose lock a revoke
// took away from this server — the lookup, create or remove after a
// handoff — is a speculative fill, as loadForRead's is for a file: the
// sector comes in with the directory sectors the hint maps, in one claim
// and one ReadV, and specFill judges them by it.
func (fs *FS) inodeEntry(op *obs.Span, inum int64) (*cache.Entry, error) {
	addr := fs.lay.InodeAddr(inum)
	if e, ok := fs.meta.Lookup(addr); ok {
		return e, nil
	}
	owner := InodeLock(inum)
	var room [1 + dirRoom]block
	blocks := append(room[:0], block{addr, owner, fs.meta})
	var keep func(sector []byte) bool
	if h, hinted := fs.takeHint(inum, TypeDir); hinted {
		blocks = fs.dirSectors(blocks, h, 0, owner)
		keep = func(sector []byte) bool { return fs.specFill(h, sector) }
	}
	e, _, err := fs.fetch(op, fs.pc, blocks, keep)
	return e, err
}

// inodeOf decodes the inode sector e and lets go of it. It decodes a copy
// taken under the pool's lock: a writer of the file on this server, which
// the file's lock does not keep out, may be changing the sector.
func (fs *FS) inodeOf(e *cache.Entry) (Inode, error) {
	var sec [InodeSize]byte
	fs.meta.CopyOut(sec[:], e, 0)
	fs.meta.Unpin(e)
	return decodeInode(sec[:])
}

// loadInode is fs.loadInode for an inode the transaction may change: its
// sector comes with it, held.
func (t *txn) loadInode(inum int64) (*cache.Entry, Inode, error) {
	e, err := t.fs.inodeEntry(t.op, inum)
	if err != nil {
		return nil, Inode{}, err
	}
	t.hold(e)
	in, err := decodeInode(e.Data)
	return e, in, err
}

// putInode writes the inode back through the transaction, folding in
// any pending approximate atime.
func (t *txn) putInode(e *cache.Entry, in Inode) {
	inum := (e.Addr - t.fs.lay.InodeBase) / InodeSize
	t.fs.mu.Lock()
	if at, ok := t.fs.atimes[inum]; ok {
		if at > in.Atime {
			in.Atime = at
		}
		delete(t.fs.atimes, inum)
	}
	t.fs.mu.Unlock()
	tmp := make([]byte, offSymData+MaxSymlink)
	copy(tmp, e.Data[:len(tmp)])
	encodeInode(in, tmp)
	t.update(e, 0, tmp)
}

// ---- path resolution (phase one) ----

// pathRoom is how many components of a path splitPath cuts on its
// caller's stack; a deeper path spills to the heap.
const pathRoom = 16

// splitPath cuts path into the components a walk from the root visits,
// resolving "." and ".." lexically. They are substrings of path, in room
// while they fit.
func splitPath(path string, room *[pathRoom]string) ([]string, error) {
	if path == "" {
		return nil, ErrInval
	}
	parts := room[:0]
	for path != "" {
		var p string
		p, path, _ = strings.Cut(path, "/")
		switch p {
		case "", ".":
		case "..":
			if len(parts) == 0 {
				return nil, ErrInval
			}
			parts = parts[:len(parts)-1]
		default:
			if len(p) > MaxName {
				return nil, ErrNameTooLong
			}
			parts = append(parts, p)
		}
	}
	return parts, nil
}

// lookupOnce finds name in directory inum with a shared lock held
// only for the lookup (phase-one style).
func (fs *FS) lookupOnce(op *obs.Span, dir int64, name string) (DirEntry, error) {
	defer fs.lat("lookup", fs.latStart())
	var out DirEntry
	err := fs.withLocks(op, []lockReq{{InodeLock(dir), lockservice.Shared}}, func() error {
		in, err := fs.loadInode(op, dir)
		if err != nil {
			return err
		}
		if in.Type != TypeDir {
			return ErrNotDir
		}
		e, _, _, err := fs.dirFind(op, dir, in, name)
		if err != nil {
			return err
		}
		out = e
		return nil
	})
	return out, err
}

// namei resolves a path to an inode number, following symlinks.
func (fs *FS) namei(op *obs.Span, path string, followLast bool) (int64, error) {
	return fs.nameiDepth(op, path, followLast, 0)
}

func (fs *FS) nameiDepth(op *obs.Span, path string, followLast bool, depth int) (int64, error) {
	if depth > maxSymlinkDepth {
		return -1, ErrInval
	}
	var room [pathRoom]string
	parts, err := splitPath(path, &room)
	if err != nil {
		return -1, err
	}
	return fs.walk(op, parts, followLast, depth)
}

// walk resolves a path cut into parts, from the root; depth counts the
// symlinks followed on the way to it.
func (fs *FS) walk(op *obs.Span, parts []string, followLast bool, depth int) (int64, error) {
	cur := int64(RootInum)
	for i, name := range parts {
		ent, err := fs.lookupOnce(op, cur, name)
		if err != nil {
			return -1, err
		}
		last := i == len(parts)-1
		if ent.Type == TypeSymlink && (!last || followLast) {
			target, err := fs.readlinkInum(op, ent.Inum)
			if err != nil {
				return -1, err
			}
			rest := strings.Join(parts[i+1:], "/")
			var next string
			if strings.HasPrefix(target, "/") {
				next = target + "/" + rest
			} else {
				next = strings.Join(parts[:i], "/") + "/" + target + "/" + rest
			}
			return fs.nameiDepth(op, next, followLast, depth+1)
		}
		cur = ent.Inum
	}
	return cur, nil
}

// nameiParent resolves all but the last component, returning the
// parent directory inode and the final name.
func (fs *FS) nameiParent(op *obs.Span, path string) (int64, string, error) {
	var room [pathRoom]string
	parts, err := splitPath(path, &room)
	if err != nil {
		return -1, "", err
	}
	if len(parts) == 0 {
		return -1, "", ErrInval
	}
	dir, err := fs.walk(op, parts[:len(parts)-1], true, 0)
	if err != nil {
		return -1, "", err
	}
	return dir, parts[len(parts)-1], nil
}

func (fs *FS) readlinkInum(op *obs.Span, inum int64) (string, error) {
	var target string
	err := fs.withLocks(op, []lockReq{{InodeLock(inum), lockservice.Shared}}, func() error {
		in, err := fs.loadInode(op, inum)
		if err != nil {
			return err
		}
		if in.Type != TypeSymlink {
			return ErrInval
		}
		target = in.Symlink
		return nil
	})
	return target, err
}

// ---- directory content helpers (run under the dir's lock) ----

// dirSectorAddr maps directory byte offset (sector-aligned) to the
// Petal sector address.
func (fs *FS) dirSectorAddr(in Inode, off int64) (int64, bool) {
	pageAddr, inPage, ok := fs.filePageAddr(in, off)
	if !ok {
		return 0, false
	}
	return pageAddr + (inPage &^ (SectorSize - 1)), true
}

// dirSectors appends to buf the directory's sectors from off, which is
// sector-aligned, to its end, under owner, the directory's lock.
func (fs *FS) dirSectors(buf []block, in Inode, off int64, owner uint64) []block {
	for ; off < in.Size; off += SectorSize {
		addr, ok := fs.dirSectorAddr(in, off)
		if !ok {
			break
		}
		buf = append(buf, block{addr, owner, fs.meta})
	}
	return buf
}

// dirSector returns the directory's content sector at off, pinned, and
// its address; the caller holds dirInum's lock. A miss brings in the
// sectors after it with it in one fetch: a scan that misses one sector
// of a cold directory would miss each of the rest.
func (fs *FS) dirSector(op *obs.Span, dirInum int64, in Inode, off int64) (*cache.Entry, int64, error) {
	addr, ok := fs.dirSectorAddr(in, off)
	if !ok {
		return nil, 0, ErrBadDir
	}
	if e, ok := fs.meta.Lookup(addr); ok {
		return e, addr, nil
	}
	var room [dirRoom]block
	e, _, err := fs.fetch(op, fs.pc, fs.dirSectors(room[:0], in, off, InodeLock(dirInum)), nil)
	return e, addr, err
}

// dirRoom is how many directory sectors a fetch lists on its caller's
// stack: 8 KB of directory; a longer one spills to the heap.
const dirRoom = 16

// dirFind scans a directory for name. dirInum's lock must be held;
// the content sectors are cached under it so revocation flushes and
// invalidates them with the directory.
func (fs *FS) dirFind(op *obs.Span, dirInum int64, in Inode, name string) (DirEntry, int64, int, error) {
	for off := int64(0); off < in.Size; off += SectorSize {
		e, addr, err := fs.dirSector(op, dirInum, in, off)
		if err != nil {
			return DirEntry{}, 0, 0, err
		}
		ent, pos, found := dirSectorFind(e.Data, name)
		fs.meta.Unpin(e)
		if found {
			return ent, addr, pos, nil
		}
	}
	return DirEntry{}, 0, 0, ErrNotExist
}

// dirEntries lists a directory's entries (dir lock held). A cold scan
// costs one Petal round trip, not one per sector (dirSector).
func (fs *FS) dirEntries(op *obs.Span, dirInum int64, in Inode) ([]DirEntry, error) {
	var out []DirEntry
	for off := int64(0); off < in.Size; off += SectorSize {
		e, _, err := fs.dirSector(op, dirInum, in, off)
		if err != nil {
			return nil, err
		}
		es, err := dirSectorEntries(e.Data)
		fs.meta.Unpin(e)
		if err != nil {
			return nil, err
		}
		out = append(out, es...)
	}
	return out, nil
}

// dirAdd inserts an entry, extending the directory by a sector (and
// allocating metadata blocks) as needed. dirInum's lock is held
// exclusive; inodeE is the dir's inode cache entry.
func (fs *FS) dirAdd(t *txn, dirInum int64, inodeE *cache.Entry, in *Inode, ent DirEntry) error {
	need := entryLen(ent.Name)
	lockID := InodeLock(dirInum)
	// Try existing sectors.
	for off := int64(0); off < in.Size; off += SectorSize {
		e, _, err := fs.dirSector(t.op, dirInum, *in, off)
		if err != nil {
			return err
		}
		if dirSectorSpace(e.Data) >= need {
			t.hold(e)
			var tmp [dirDataEnd]byte // the edit's scratch copy, on the stack
			copy(tmp[:], e.Data)
			dirSectorAppend(tmp[:], ent)
			t.update(e, 0, tmp[:])
			return nil
		}
		fs.meta.Unpin(e)
	}
	// Extend by one sector, allocating a block when crossing a 4 KB
	// boundary.
	off := in.Size
	if _, _, ok := fs.filePageAddr(*in, off); !ok {
		if err := fs.ensureBlock(t, in, off, true); err != nil {
			return err
		}
	}
	addr, ok := fs.dirSectorAddr(*in, off)
	if !ok {
		return ErrBadDir
	}
	e, err := t.read(addr, lockID)
	if err != nil {
		return err
	}
	// A sector of a block that was free may be cached here under the
	// lock of the block's segment (destroyInode): it is the directory's
	// now, to write back when the directory's lock goes.
	fs.meta.Own(addr, lockID)
	// Initialize the fresh sector (it may hold stale metadata from a
	// previous life) and append.
	tmp := make([]byte, dirDataEnd)
	dirSectorAppend(tmp, ent)
	t.update(e, 0, tmp)
	in.Size = off + SectorSize
	in.Mtime = int64(fs.w.Clock.Now())
	t.putInode(inodeE, *in)
	return nil
}

// dirRemove deletes name from the directory (lock held exclusive).
func (fs *FS) dirRemove(t *txn, dirInum int64, in Inode, name string) error {
	for off := int64(0); off < in.Size; off += SectorSize {
		e, _, err := fs.dirSector(t.op, dirInum, in, off)
		if err != nil {
			return err
		}
		if _, pos, found := dirSectorFind(e.Data, name); found {
			t.hold(e)
			var tmp [dirDataEnd]byte
			copy(tmp[:], e.Data)
			dirSectorRemove(tmp[:], pos)
			t.update(e, 0, tmp[:])
			return nil
		}
		fs.meta.Unpin(e)
	}
	return ErrNotExist
}

// dirEmpty reports whether a directory has no entries.
func (fs *FS) dirEmpty(op *obs.Span, dirInum int64, in Inode) (bool, error) {
	es, err := fs.dirEntries(op, dirInum, in)
	return len(es) == 0, err
}

// ---- operations ----

// Stat returns metadata for the object at path.
func (fs *FS) Stat(path string) (Info, error) {
	if err := fs.usable(); err != nil {
		return Info{}, err
	}
	fs.chargeOp(0)
	var info Info
	do := func(op *obs.Span) error {
		inum, err := fs.namei(op, path, true)
		if err != nil {
			return err
		}
		return fs.withLocks(op, []lockReq{{InodeLock(inum), lockservice.Shared}}, func() error {
			in, err := fs.loadInode(op, inum)
			if err != nil {
				return err
			}
			if in.Type == TypeFree {
				return ErrRetry // removed between phases
			}
			info = Info{
				Inum: inum, Type: in.Type, Size: in.Size,
				Nlink: int(in.Nlink), Mtime: in.Mtime, Ctime: in.Ctime, Atime: in.Atime,
			}
			return nil
		})
	}
	err := fs.traced("stat", func(op *obs.Span) error { return fs.retrying(op, do) })
	return info, err
}

// ReadDir lists the entries of the directory at path.
func (fs *FS) ReadDir(path string) ([]DirEntry, error) {
	if err := fs.usable(); err != nil {
		return nil, err
	}
	fs.chargeOp(0)
	var out []DirEntry
	do := func(op *obs.Span) error {
		inum, err := fs.namei(op, path, true)
		if err != nil {
			return err
		}
		return fs.withLocks(op, []lockReq{{InodeLock(inum), lockservice.Shared}}, func() error {
			in, err := fs.loadInode(op, inum)
			if err != nil {
				return err
			}
			if in.Type != TypeDir {
				return ErrNotDir
			}
			out, err = fs.dirEntries(op, inum, in)
			return err
		})
	}
	err := fs.traced("readdir", func(op *obs.Span) error { return fs.retrying(op, do) })
	return out, err
}

// ReadDirPlus lists the directory at path and stats every entry in
// one pass. A ReadDir followed by a Stat per entry costs one lock
// round and — on a cold cache — one Petal read per inode sector;
// ReadDirPlus acquires the directory and all entry locks in a single
// sorted pass (§5's deadlock-avoidance protocol) and fetches every
// missing inode sector with one scatter-gather ReadV. Infos align
// index-for-index with the returned entries.
func (fs *FS) ReadDirPlus(path string) ([]DirEntry, []Info, error) {
	if err := fs.usable(); err != nil {
		return nil, nil, err
	}
	fs.chargeOp(0)
	var ents []DirEntry
	var infos []Info
	do := func(op *obs.Span) error {
		inum, err := fs.namei(op, path, true)
		if err != nil {
			return err
		}
		// Phase one: list under the directory lock alone to learn which
		// inode locks the stat pass needs.
		var listed []DirEntry
		err = fs.withLocks(op, []lockReq{{InodeLock(inum), lockservice.Shared}}, func() error {
			in, err := fs.loadInode(op, inum)
			if err != nil {
				return err
			}
			if in.Type != TypeDir {
				return ErrNotDir
			}
			listed, err = fs.dirEntries(op, inum, in)
			return err
		})
		if err != nil {
			return err
		}
		// Phase two: the directory plus every entry lock, then
		// re-validate the listing (it may have changed between phases)
		// and batch-fetch the inodes.
		reqs := make([]lockReq, 0, len(listed)+1)
		reqs = append(reqs, lockReq{InodeLock(inum), lockservice.Shared})
		for _, ent := range listed {
			reqs = append(reqs, lockReq{InodeLock(ent.Inum), lockservice.Shared})
		}
		return fs.withLocks(op, reqs, func() error {
			in, err := fs.loadInode(op, inum)
			if err != nil {
				return err
			}
			if in.Type != TypeDir {
				return ErrNotDir
			}
			ents, err = fs.dirEntries(op, inum, in)
			if err != nil {
				return err
			}
			if !sameEntries(ents, listed) {
				return ErrRetry // directory changed; lock set is stale
			}
			inodes := make([]block, len(ents))
			for i, ent := range ents {
				inodes[i] = block{fs.lay.InodeAddr(ent.Inum), InodeLock(ent.Inum), fs.meta}
			}
			if err := fs.warm(op, inodes); err != nil {
				return err
			}
			infos = infos[:0]
			for _, ent := range ents {
				ein, err := fs.loadInode(op, ent.Inum)
				if err != nil {
					return err
				}
				if ein.Type == TypeFree {
					return ErrRetry // entry freed under a raced rename/remove
				}
				infos = append(infos, Info{
					Inum: ent.Inum, Type: ein.Type, Size: ein.Size,
					Nlink: int(ein.Nlink), Mtime: ein.Mtime, Ctime: ein.Ctime, Atime: ein.Atime,
				})
			}
			return nil
		})
	}
	err := fs.traced("readdirplus", func(op *obs.Span) error { return fs.retrying(op, do) })
	if err != nil {
		return nil, nil, err
	}
	return ents, infos, nil
}

// sameEntries reports whether two listings name the same entries in
// the same order.
func sameEntries(a, b []DirEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Inum != b[i].Inum || a[i].Name != b[i].Name {
			return false
		}
	}
	return true
}

// create is the shared implementation of Create, Mkdir, and Symlink.
func (fs *FS) create(path string, ftype FileType, symTarget string) (int64, error) {
	if err := fs.usable(); err != nil {
		return -1, err
	}
	fs.chargeOp(0)
	var newInum int64 = -1
	do := func(op *obs.Span) error {
		dir, name, err := fs.nameiParent(op, path)
		if err != nil {
			return err
		}
		return fs.withTxn(op, []lockReq{{InodeLock(dir), lockservice.Exclusive}}, func(t *txn) error {
			dirE, din, err := t.loadInode(dir)
			if err != nil {
				return err
			}
			if din.Type == TypeFree {
				return ErrRetry // parent removed since phase one
			}
			if din.Type != TypeDir {
				return ErrNotDir
			}
			if _, _, _, err := fs.dirFind(op, dir, din, name); err == nil {
				return ErrExist
			} else if !errors.Is(err, ErrNotExist) {
				return err
			}
			inum, err := fs.allocObj(t, classInode)
			if err != nil {
				return err
			}
			if err := fs.lockNew(t, inum); err != nil {
				return err
			}
			now := int64(fs.w.Clock.Now())
			nin := Inode{
				Type: ftype, Nlink: 1,
				Mtime: now, Ctime: now, Atime: now,
				Symlink: symTarget,
			}
			if ftype == TypeDir {
				nin.Nlink = 2
			}
			ie, err := t.read(fs.lay.InodeAddr(inum), InodeLock(inum))
			if err != nil {
				return err
			}
			t.putInode(ie, nin)
			if err := fs.dirAdd(t, dir, dirE, &din, DirEntry{Name: name, Inum: inum, Type: ftype}); err != nil {
				return err
			}
			if ftype == TypeDir {
				din.Nlink++
				din.Mtime = now
				t.putInode(dirE, din)
			}
			newInum = inum
			return nil
		})
	}
	err := fs.traced("create", func(op *obs.Span) error { return fs.retrying(op, do) })
	return newInum, err
}

// Create makes an empty regular file.
func (fs *FS) Create(path string) error {
	_, err := fs.create(path, TypeFile, "")
	return err
}

// Mkdir makes an empty directory.
func (fs *FS) Mkdir(path string) error {
	_, err := fs.create(path, TypeDir, "")
	return err
}

// Symlink creates a symbolic link at path pointing to target. The
// target is stored inline in the inode (§3).
func (fs *FS) Symlink(target, path string) error {
	if len(target) > MaxSymlink {
		return ErrNameTooLong
	}
	_, err := fs.create(path, TypeSymlink, target)
	return err
}

// Readlink returns a symlink's target.
func (fs *FS) Readlink(path string) (string, error) {
	if err := fs.usable(); err != nil {
		return "", err
	}
	fs.chargeOp(0)
	var target string
	err := fs.traced("readlink", func(op *obs.Span) error {
		inum, err := fs.namei(op, path, false)
		if err != nil {
			return err
		}
		target, err = fs.readlinkInum(op, inum)
		return err
	})
	return target, err
}

// Remove unlinks a file or symlink; Rmdir removes an empty
// directory.
func (fs *FS) Remove(path string) error { return fs.remove(path, false) }

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(path string) error { return fs.remove(path, true) }

func (fs *FS) remove(path string, wantDir bool) error {
	if err := fs.usable(); err != nil {
		return err
	}
	fs.chargeOp(0)
	do := func(op *obs.Span) error {
		dir, name, err := fs.nameiParent(op, path)
		if err != nil {
			return err
		}
		ent, err := fs.lookupOnce(op, dir, name)
		if err != nil {
			return err
		}
		locks := []lockReq{
			{InodeLock(dir), lockservice.Exclusive},
			{InodeLock(ent.Inum), lockservice.Exclusive},
		}
		return fs.withTxn(op, locks, func(t *txn) error {
			dirE, din, err := t.loadInode(dir)
			if err != nil {
				return err
			}
			if din.Type == TypeFree {
				return ErrRetry
			}
			if din.Type != TypeDir {
				return ErrNotDir
			}
			cur, _, _, err := fs.dirFind(op, dir, din, name)
			if err != nil {
				if errors.Is(err, ErrNotExist) {
					return ErrRetry // changed since phase one
				}
				return err
			}
			if cur.Inum != ent.Inum {
				return ErrRetry
			}
			tgtE, tin, err := t.loadInode(ent.Inum)
			if err != nil {
				return err
			}
			if wantDir {
				if tin.Type != TypeDir {
					return ErrNotDir
				}
				empty, err := fs.dirEmpty(op, ent.Inum, tin)
				if err != nil {
					return err
				}
				if !empty {
					return ErrNotEmpty
				}
			} else if tin.Type == TypeDir {
				return ErrIsDir
			}
			if err := fs.dirRemove(t, dir, din, name); err != nil {
				return err
			}
			now := int64(fs.w.Clock.Now())
			din.Mtime = now
			links := int(tin.Nlink) - 1
			if tin.Type == TypeDir {
				links-- // the removed dir's self-count
				din.Nlink--
			}
			t.putInode(dirE, din)
			if links > 0 {
				tin.Nlink = uint16(links)
				tin.Ctime = now
				t.putInode(tgtE, tin)
				return nil
			}
			return fs.destroyInode(t, ent.Inum, tgtE, tin)
		})
	}
	return fs.traced("remove", func(op *obs.Span) error { return fs.retrying(op, do) })
}

// destroyInode frees an inode and all its blocks (lock held
// exclusive), and decommits the Petal space backing the large block.
func (fs *FS) destroyInode(t *txn, inum int64, e *cache.Entry, in Inode) error {
	var room [NumDirect + 2]freeSpec // the inode, its small blocks, its large one
	items := append(room[:0], freeSpec{classInode, inum})
	blockClass := classDataSmall
	if in.Type == TypeDir {
		blockClass = classMetaSmall
	}
	for _, s := range in.Small {
		if s != 0 {
			items = append(items, freeSpec{blockClass, s - 1})
		}
	}
	var largeIdx int64 = -1
	if in.Large != 0 {
		largeIdx = in.Large - 1
		items = append(items, freeSpec{classLarge, largeIdx})
	}
	if err := fs.freeObjs(t, items); err != nil {
		return err
	}
	if in.Type == TypeDir {
		fs.disownDir(in)
	}
	t.putInode(e, Inode{Type: TypeFree})
	fs.dropHint(inum) // its blocks are free now
	// Drop cached data pages; their contents are dead. Those already on
	// their way to Petal must land before the blocks can be reused.
	fs.data.InvalidateByOwner(InodeLock(inum))
	fs.awaitFlights(in)
	if largeIdx >= 0 {
		// Release the physical space behind the large block (§3's
		// decommit primitive).
		_ = fs.pc.For(t.op).Decommit(fs.vd, fs.lay.LargeAddr(largeIdx), fs.lay.LargeBlockSize)
	}
	return nil
}

// disownDir puts the sectors of a directory being destroyed that are
// cached here, dirty or not, under the locks of their blocks' bitmap
// segments, which protect a free block (§3) and which the caller holds.
// Left under the directory's lock, a sector would be written back only
// when that lock goes — after a server that allocated the block under
// the segment's lock had read it, or, on this server, over the sector's
// new directory's writes.
func (fs *FS) disownDir(in Inode) {
	for off := int64(0); off < in.Size; off += SectorSize {
		addr, ok := fs.dirSectorAddr(in, off)
		if !ok {
			continue
		}
		var bit int64
		if slot, _ := blockFor(off); slot >= 0 {
			bit = fs.lay.bitFor(classMetaSmall, in.Small[slot]-1)
		} else {
			bit = fs.lay.bitFor(classLarge, in.Large-1)
		}
		fs.meta.Own(addr, SegLock(bit/fs.lay.SegBits))
	}
}

// Rename moves src to dst, replacing a compatible existing dst.
func (fs *FS) Rename(src, dst string) error {
	if err := fs.usable(); err != nil {
		return err
	}
	fs.chargeOp(0)
	// Reject moving a directory into its own subtree (we keep no
	// parent pointers, so the check is lexical).
	if strings.HasPrefix(strings.Trim(dst, "/")+"/", strings.Trim(src, "/")+"/") {
		return ErrInval
	}
	do := func(op *obs.Span) error {
		sdir, sname, err := fs.nameiParent(op, src)
		if err != nil {
			return err
		}
		sent, err := fs.lookupOnce(op, sdir, sname)
		if err != nil {
			return err
		}
		ddir, dname, err := fs.nameiParent(op, dst)
		if err != nil {
			return err
		}
		dent, derr := fs.lookupOnce(op, ddir, dname)
		var room [4]lockReq
		locks := append(room[:0],
			lockReq{InodeLock(sdir), lockservice.Exclusive},
			lockReq{InodeLock(ddir), lockservice.Exclusive},
			lockReq{InodeLock(sent.Inum), lockservice.Exclusive})
		if derr == nil {
			locks = append(locks, lockReq{InodeLock(dent.Inum), lockservice.Exclusive})
		}
		return fs.withTxn(op, locks, func(t *txn) error {
			sdE, sdin, err := t.loadInode(sdir)
			if err != nil {
				return err
			}
			// When source and destination directories coincide, all
			// mutations must go through ONE inode value.
			dd, ddE := &sdin, sdE
			var ddinStore Inode
			if sdir != ddir {
				var e2 *cache.Entry
				e2, ddinStore, err = t.loadInode(ddir)
				if err != nil {
					return err
				}
				dd, ddE = &ddinStore, e2
			}
			if sdin.Type == TypeFree || dd.Type == TypeFree {
				return ErrRetry
			}
			if sdin.Type != TypeDir || dd.Type != TypeDir {
				return ErrNotDir
			}
			curS, _, _, err := fs.dirFind(op, sdir, sdin, sname)
			if err != nil || curS.Inum != sent.Inum {
				return ErrRetry
			}
			curD, _, _, derrNow := fs.dirFind(op, ddir, *dd, dname)
			if (derr == nil) != (derrNow == nil) {
				return ErrRetry
			}
			if derrNow == nil && curD.Inum != dent.Inum {
				return ErrRetry
			}
			sin, err := fs.loadInode(op, sent.Inum)
			if err != nil {
				return err
			}
			now := int64(fs.w.Clock.Now())
			// Replace an existing destination.
			if derrNow == nil {
				dtE, dtin, err := t.loadInode(dent.Inum)
				if err != nil {
					return err
				}
				if dtin.Type == TypeDir {
					if sin.Type != TypeDir {
						return ErrIsDir
					}
					empty, err := fs.dirEmpty(op, dent.Inum, dtin)
					if err != nil {
						return err
					}
					if !empty {
						return ErrNotEmpty
					}
				} else if sin.Type == TypeDir {
					return ErrNotDir
				}
				if err := fs.dirRemove(t, ddir, *dd, dname); err != nil {
					return err
				}
				if dtin.Type == TypeDir {
					dd.Nlink--
				}
				if err := fs.destroyInode(t, dent.Inum, dtE, dtin); err != nil {
					return err
				}
			}
			if err := fs.dirRemove(t, sdir, sdin, sname); err != nil {
				return err
			}
			if err := fs.dirAdd(t, ddir, ddE, dd, DirEntry{Name: dname, Inum: sent.Inum, Type: sin.Type}); err != nil {
				return err
			}
			if sin.Type == TypeDir && sdir != ddir {
				sdin.Nlink--
				dd.Nlink++
			}
			sdin.Mtime = now
			dd.Mtime = now
			t.putInode(sdE, sdin)
			if sdir != ddir {
				t.putInode(ddE, *dd)
			}
			return nil
		})
	}
	return fs.traced("rename", func(op *obs.Span) error { return fs.retrying(op, do) })
}

// Link creates a hard link to an existing file (not directories).
func (fs *FS) Link(existing, newpath string) error {
	if err := fs.usable(); err != nil {
		return err
	}
	fs.chargeOp(0)
	do := func(op *obs.Span) error {
		inum, err := fs.namei(op, existing, true)
		if err != nil {
			return err
		}
		dir, name, err := fs.nameiParent(op, newpath)
		if err != nil {
			return err
		}
		locks := []lockReq{
			{InodeLock(dir), lockservice.Exclusive},
			{InodeLock(inum), lockservice.Exclusive},
		}
		return fs.withTxn(op, locks, func(t *txn) error {
			dirE, din, err := t.loadInode(dir)
			if err != nil {
				return err
			}
			if din.Type == TypeFree {
				return ErrRetry
			}
			if din.Type != TypeDir {
				return ErrNotDir
			}
			tE, tin, err := t.loadInode(inum)
			if err != nil {
				return err
			}
			if tin.Type == TypeDir {
				return ErrIsDir
			}
			if tin.Type == TypeFree {
				return ErrRetry
			}
			if _, _, _, err := fs.dirFind(op, dir, din, name); err == nil {
				return ErrExist
			} else if !errors.Is(err, ErrNotExist) {
				return err
			}
			if err := fs.dirAdd(t, dir, dirE, &din, DirEntry{Name: name, Inum: inum, Type: tin.Type}); err != nil {
				return err
			}
			tin.Nlink++
			tin.Ctime = int64(fs.w.Clock.Now())
			t.putInode(tE, tin)
			return nil
		})
	}
	return fs.traced("link", func(op *obs.Span) error { return fs.retrying(op, do) })
}
