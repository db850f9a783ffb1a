// Package localfs implements the comparison baseline for the paper's
// evaluation: a single-node, well-tuned local file system standing in
// for DIGITAL's AdvFS. Like AdvFS it journals metadata through a
// write-ahead log (so file creation is fast), stripes file data
// across multiple local disks attached through a fixed number of
// SCSI controller strings, and read-ahead prefetches sequential
// reads. Unlike Frangipani it has no distribution: no Petal, no lock
// service, no coherence machinery.
//
// The performance envelope mirrors the paper's AdvFS testbed: 8 RZ29
// disks on two 10 MB/s fast SCSI strings (~17 MB/s raw), a unified
// buffer cache, and optional PrestoServe NVRAM in front of the
// disks.
package localfs

import (
	"errors"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"frangipani/internal/sim"
	"frangipani/internal/wal"
)

// Errors (mirroring the fs package's).
var (
	ErrNotExist = errors.New("localfs: no such file or directory")
	ErrExist    = errors.New("localfs: file exists")
	ErrNotDir   = errors.New("localfs: not a directory")
	ErrIsDir    = errors.New("localfs: is a directory")
	ErrNotEmpty = errors.New("localfs: directory not empty")
	ErrInval    = errors.New("localfs: invalid argument")
)

// PageSize is the buffer-cache page size.
const PageSize = 4096

// StripeSize is the striping unit across disks (AdvFS-like 64 KB).
const StripeSize = 64 << 10

// Config sizes the baseline to the paper's AdvFS machine.
type Config struct {
	NumDisks       int
	DiskParams     sim.DiskParams
	Controllers    int   // SCSI strings
	ControllerRate int64 // bytes/s per string
	NVRAM          int   // bytes per disk; 0 = none
	CPUPerOp       sim.Duration
	CPUPerKB       sim.Duration
	SyncEvery      sim.Duration
	SyncLog        bool
	ReadAhead      int // pages
	CacheCap       int // pages
	LogSize        int64
}

// DefaultConfig is the paper's AdvFS box: 8 RZ29s on two 10 MB/s
// strings. The CPU costs are calibrated from Table 3 (write 13.3
// MB/s at 80%, read 13.2 MB/s at 50%).
func DefaultConfig() Config {
	return Config{
		NumDisks:       8,
		DiskParams:     sim.DefaultDiskParams(4 << 30),
		Controllers:    2,
		ControllerRate: 10 << 20,
		CPUPerOp:       200 * time.Microsecond,
		CPUPerKB:       55 * time.Microsecond,
		SyncEvery:      30 * time.Second,
		ReadAhead:      16,
		CacheCap:       8192, // 32 MB
		LogSize:        wal.DefaultLogSize,
	}
}

// inode is the in-memory metadata of one object.
type inode struct {
	ino     int64
	isDir   bool
	symlink string
	size    int64
	nlink   int
	mtime   int64
	extents []extent // data location, one per stripe unit
}

// extent locates one stripe unit.
type extent struct {
	disk int
	off  int64
}

// page is one cached data page.
type page struct {
	data  []byte
	dirty bool
}

type pageKey struct {
	ino  int64
	page int64
}

// Info mirrors fs.Info for the workload drivers.
type Info struct {
	Size  int64
	IsDir bool
	Nlink int
	Mtime int64
}

// DirEntry is one directory listing element.
type DirEntry struct {
	Name  string
	IsDir bool
}

// FS is the single-node baseline file system.
type FS struct {
	w     *sim.World
	cfg   Config
	cpu   *sim.CPU
	disks []*sim.Disk
	devs  []sim.BlockDev
	ctrl  []*sim.Resource
	log   *wal.Log

	mu       sync.Mutex
	inodes   map[int64]*inode
	dirs     map[int64]map[string]int64
	nextIno  int64
	alloc    []int64 // per-disk bump allocator
	cache    map[pageKey]*page
	lruTick  int64
	lruStamp map[pageKey]int64
	raNext   map[int64]int64

	cancel func()
}

// New builds the baseline on the given machine name.
func New(w *sim.World, machine string, cfg Config) *FS {
	f := &FS{
		w:        w,
		cfg:      cfg,
		cpu:      w.CPU(machine),
		inodes:   make(map[int64]*inode),
		dirs:     make(map[int64]map[string]int64),
		nextIno:  2,
		cache:    make(map[pageKey]*page),
		lruStamp: make(map[pageKey]int64),
		raNext:   make(map[int64]int64),
	}
	for i := 0; i < cfg.Controllers; i++ {
		f.ctrl = append(f.ctrl, sim.NewResource(w.Clock, machine+"/scsi"))
	}
	for i := 0; i < cfg.NumDisks; i++ {
		d := sim.NewDisk(w.Clock, machine, cfg.DiskParams)
		f.disks = append(f.disks, d)
		if cfg.NVRAM > 0 {
			f.devs = append(f.devs, sim.NewNVRAM(w.Clock, d, cfg.NVRAM, 50*time.Microsecond))
		} else {
			f.devs = append(f.devs, d)
		}
		f.alloc = append(f.alloc, cfg.LogSize) // reserve the log at the front of disk 0
	}
	f.inodes[1] = &inode{ino: 1, isDir: true, nlink: 2}
	f.dirs[1] = make(map[string]int64)
	f.log = wal.New(&diskRegion{fs: f, disk: 0}, cfg.LogSize)
	f.log.SetReclaim(func(through int64) {
		_ = f.log.Flush()
		f.log.Release(through)
	})
	f.cancel = w.Clock.Tick(cfg.SyncEvery, func() { _ = f.Sync() })
	return f
}

// Close stops the sync demon.
func (f *FS) Close() { f.cancel() }

// diskRegion adapts disk 0 (through its controller) for the WAL.
type diskRegion struct {
	fs   *FS
	disk int
}

func (r *diskRegion) ReadAt(p []byte, off int64) error {
	return r.fs.diskRead(r.disk, p, off)
}

func (r *diskRegion) WriteAt(p []byte, off int64) error {
	return r.fs.diskWrite(r.disk, p, off)
}

// diskRead performs a disk read through the disk's controller string.
func (f *FS) diskRead(disk int, p []byte, off int64) error {
	c := f.ctrl[disk%len(f.ctrl)]
	c.Use(sim.Duration(float64(len(p)) / float64(f.cfg.ControllerRate) * 1e9))
	return f.devs[disk].ReadAt(p, off)
}

func (f *FS) diskWrite(disk int, p []byte, off int64) error {
	c := f.ctrl[disk%len(f.ctrl)]
	c.Use(sim.Duration(float64(len(p)) / float64(f.cfg.ControllerRate) * 1e9))
	return f.devs[disk].WriteAt(p, off)
}

func (f *FS) chargeOp(bytes int) {
	f.cpu.Use(f.cfg.CPUPerOp + sim.Duration(bytes/1024)*f.cfg.CPUPerKB)
}

// logMeta appends a metadata journal record. The record content is a
// compact opaque description — the baseline never replays it (we do
// not crash AdvFS in any experiment), but the I/O cost of journaling
// is modelled faithfully.
func (f *FS) logMeta(desc string) {
	data := []byte(desc)
	if len(data) > 100 {
		data = data[:100]
	}
	if len(data) == 0 {
		data = []byte{0}
	}
	_, _ = f.log.Append([]wal.Update{{Addr: 0, Off: 0, Data: data, Ver: uint64(f.w.Clock.Now())}})
	if f.cfg.SyncLog {
		_ = f.log.Flush()
	}
}

// ---- namespace ----

func splitPath(path string) ([]string, error) {
	if path == "" {
		return nil, ErrInval
	}
	var parts []string
	for _, p := range strings.Split(path, "/") {
		switch p {
		case "", ".":
		case "..":
			if len(parts) == 0 {
				return nil, ErrInval
			}
			parts = parts[:len(parts)-1]
		default:
			parts = append(parts, p)
		}
	}
	return parts, nil
}

// resolve walks to the inode for path; mu held.
func (f *FS) resolve(path string) (*inode, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	cur := f.inodes[1]
	for _, name := range parts {
		if !cur.isDir {
			return nil, ErrNotDir
		}
		ino, ok := f.dirs[cur.ino][name]
		if !ok {
			return nil, ErrNotExist
		}
		cur = f.inodes[ino]
	}
	return cur, nil
}

func (f *FS) resolveParent(path string) (*inode, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", ErrInval
	}
	dir, err := f.resolve("/" + strings.Join(parts[:len(parts)-1], "/"))
	if err != nil {
		return nil, "", err
	}
	if !dir.isDir {
		return nil, "", ErrNotDir
	}
	return dir, parts[len(parts)-1], nil
}

func (f *FS) create(path string, isDir bool, symlink string) error {
	f.chargeOp(0)
	f.mu.Lock()
	dir, name, err := f.resolveParent(path)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	if _, ok := f.dirs[dir.ino][name]; ok {
		f.mu.Unlock()
		return ErrExist
	}
	ino := f.nextIno
	f.nextIno++
	in := &inode{ino: ino, isDir: isDir, symlink: symlink, nlink: 1, mtime: int64(f.w.Clock.Now())}
	if isDir {
		in.nlink = 2
		f.dirs[ino] = make(map[string]int64)
		dir.nlink++
	}
	f.inodes[ino] = in
	f.dirs[dir.ino][name] = ino
	f.mu.Unlock()
	f.logMeta("create " + path)
	return nil
}

// Create makes an empty file.
func (f *FS) Create(path string) error { return f.create(path, false, "") }

// Mkdir makes a directory.
func (f *FS) Mkdir(path string) error { return f.create(path, true, "") }

// Symlink records a symbolic link (resolution is intentionally
// minimal in the baseline; workloads only create and stat them).
func (f *FS) Symlink(target, path string) error { return f.create(path, false, target) }

// Readlink returns a symlink's target.
func (f *FS) Readlink(path string) (string, error) {
	f.chargeOp(0)
	f.mu.Lock()
	defer f.mu.Unlock()
	in, err := f.resolve(path)
	if err != nil {
		return "", err
	}
	if in.symlink == "" {
		return "", ErrInval
	}
	return in.symlink, nil
}

// Stat returns metadata.
func (f *FS) Stat(path string) (Info, error) {
	f.chargeOp(0)
	f.mu.Lock()
	defer f.mu.Unlock()
	in, err := f.resolve(path)
	if err != nil {
		return Info{}, err
	}
	return Info{Size: in.size, IsDir: in.isDir, Nlink: in.nlink, Mtime: in.mtime}, nil
}

// ReadDir lists a directory.
func (f *FS) ReadDir(path string) ([]DirEntry, error) {
	f.chargeOp(0)
	f.mu.Lock()
	defer f.mu.Unlock()
	in, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	if !in.isDir {
		return nil, ErrNotDir
	}
	var out []DirEntry
	for name, ino := range f.dirs[in.ino] {
		out = append(out, DirEntry{Name: name, IsDir: f.inodes[ino].isDir})
	}
	return out, nil
}

// Remove unlinks a file or symlink.
func (f *FS) Remove(path string) error { return f.remove(path, false) }

// Rmdir removes an empty directory.
func (f *FS) Rmdir(path string) error { return f.remove(path, true) }

func (f *FS) remove(path string, wantDir bool) error {
	f.chargeOp(0)
	f.mu.Lock()
	dir, name, err := f.resolveParent(path)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	ino, ok := f.dirs[dir.ino][name]
	if !ok {
		f.mu.Unlock()
		return ErrNotExist
	}
	in := f.inodes[ino]
	if wantDir {
		if !in.isDir {
			f.mu.Unlock()
			return ErrNotDir
		}
		if len(f.dirs[ino]) > 0 {
			f.mu.Unlock()
			return ErrNotEmpty
		}
		dir.nlink--
		delete(f.dirs, ino)
	} else if in.isDir {
		f.mu.Unlock()
		return ErrIsDir
	}
	delete(f.dirs[dir.ino], name)
	in.nlink--
	if in.nlink <= 0 || (wantDir && in.nlink <= 1) {
		f.dropPagesLocked(ino)
		delete(f.inodes, ino)
	}
	f.mu.Unlock()
	f.logMeta("remove " + path)
	return nil
}

// Rename moves src to dst (replacing files).
func (f *FS) Rename(src, dst string) error {
	f.chargeOp(0)
	f.mu.Lock()
	sdir, sname, err := f.resolveParent(src)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	ino, ok := f.dirs[sdir.ino][sname]
	if !ok {
		f.mu.Unlock()
		return ErrNotExist
	}
	ddir, dname, err := f.resolveParent(dst)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	if old, ok := f.dirs[ddir.ino][dname]; ok {
		oin := f.inodes[old]
		if oin.isDir {
			f.mu.Unlock()
			return ErrIsDir
		}
		f.dropPagesLocked(old)
		delete(f.inodes, old)
	}
	delete(f.dirs[sdir.ino], sname)
	f.dirs[ddir.ino][dname] = ino
	if f.inodes[ino].isDir && sdir != ddir {
		sdir.nlink--
		ddir.nlink++
	}
	f.mu.Unlock()
	f.logMeta("rename " + src)
	return nil
}

func (f *FS) dropPagesLocked(ino int64) {
	for k := range f.cache {
		if k.ino == ino {
			delete(f.cache, k)
			delete(f.lruStamp, k)
		}
	}
}

// ---- file I/O ----

// File is an open handle.
type File struct {
	fs  *FS
	ino int64
}

// Open opens an existing file.
func (f *FS) Open(path string) (*File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	in, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	if in.isDir {
		return nil, ErrIsDir
	}
	return &File{fs: f, ino: in.ino}, nil
}

// OpenFile opens, optionally creating.
func (f *FS) OpenFile(path string, create bool) (*File, error) {
	h, err := f.Open(path)
	if err == ErrNotExist && create {
		if err := f.Create(path); err != nil && err != ErrExist {
			return nil, err
		}
		return f.Open(path)
	}
	return h, err
}

// Size returns the file size.
func (h *File) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	in, ok := h.fs.inodes[h.ino]
	if !ok {
		return 0, ErrNotExist
	}
	return in.size, nil
}

// ensureExtent allocates the stripe unit containing off, striping
// round-robin across disks (AdvFS "can stripe files across multiple
// disks, thereby achieving nearly double the throughput of UFS").
func (f *FS) ensureExtent(in *inode, off int64) extent {
	idx := off / StripeSize
	for int64(len(in.extents)) <= idx {
		disk := (int(in.ino) + len(in.extents)) % len(f.disks)
		e := extent{disk: disk, off: f.alloc[disk]}
		f.alloc[disk] += StripeSize
		in.extents = append(in.extents, e)
	}
	return in.extents[idx]
}

// pageLocked returns the cached page, loading it from disk when
// load is set.
func (f *FS) pageLocked(in *inode, pg int64, load bool) (*page, error) {
	key := pageKey{in.ino, pg}
	if p, ok := f.cache[key]; ok {
		f.lruTick++
		f.lruStamp[key] = f.lruTick
		return p, nil
	}
	p := &page{data: make([]byte, PageSize)}
	if load && pg*PageSize < in.size {
		e := f.ensureExtent(in, pg*PageSize)
		inExt := pg * PageSize % StripeSize
		f.mu.Unlock()
		err := f.diskRead(e.disk, p.data, e.off+inExt)
		f.mu.Lock()
		if err != nil {
			return nil, err
		}
		// Another operation may have installed the page while the
		// lock was dropped for I/O; keep theirs (it may be dirty).
		if racer, ok := f.cache[key]; ok {
			return racer, nil
		}
	}
	f.cache[key] = p
	f.lruTick++
	f.lruStamp[key] = f.lruTick
	f.evictLocked()
	return p, nil
}

// evictLocked keeps the cache within capacity, writing back dirty
// victims.
func (f *FS) evictLocked() {
	for len(f.cache) > f.cfg.CacheCap {
		var victim pageKey
		best := int64(1 << 62)
		for k := range f.cache {
			if f.lruStamp[k] < best {
				best = f.lruStamp[k]
				victim = k
			}
		}
		p := f.cache[victim]
		delete(f.cache, victim)
		delete(f.lruStamp, victim)
		if p.dirty {
			if in, ok := f.inodes[victim.ino]; ok {
				e := f.ensureExtent(in, victim.page*PageSize)
				inExt := victim.page * PageSize % StripeSize
				f.mu.Unlock()
				_ = f.diskWrite(e.disk, p.data, e.off+inExt)
				f.mu.Lock()
			}
		}
	}
}

// WriteAt writes p at off.
func (h *File) WriteAt(p []byte, off int64) (int, error) {
	f := h.fs
	f.chargeOp(len(p))
	f.mu.Lock()
	in, ok := f.inodes[h.ino]
	if !ok {
		f.mu.Unlock()
		return 0, ErrNotExist
	}
	pos := 0
	for pos < len(p) {
		cur := off + int64(pos)
		pg := cur / PageSize
		inPage := int(cur % PageSize)
		n := PageSize - inPage
		if n > len(p)-pos {
			n = len(p) - pos
		}
		load := !(inPage == 0 && n == PageSize)
		cp, err := f.pageLocked(in, pg, load)
		if err != nil {
			f.mu.Unlock()
			return pos, err
		}
		copy(cp.data[inPage:], p[pos:pos+n])
		cp.dirty = true
		pos += n
	}
	if off+int64(len(p)) > in.size {
		in.size = off + int64(len(p))
	}
	in.mtime = int64(f.w.Clock.Now())
	f.mu.Unlock()
	f.logMeta("write")
	return len(p), nil
}

// ReadAt reads into p from off, with read-ahead on sequential
// access.
func (h *File) ReadAt(p []byte, off int64) (int, error) {
	f := h.fs
	f.chargeOp(len(p))
	f.mu.Lock()
	in, ok := f.inodes[h.ino]
	if !ok {
		f.mu.Unlock()
		return 0, ErrNotExist
	}
	if off >= in.size {
		f.mu.Unlock()
		return 0, io.EOF
	}
	want := int64(len(p))
	var readErr error
	if off+want > in.size {
		want = in.size - off
		readErr = io.EOF
	}
	sequential := f.raNext[h.ino] == off && off > 0
	// The pages the call reads and, on a sequential stream, the next
	// ReadAhead pages (the single-node baseline has no locks to lose;
	// prefetching just fills cache) come in with one round of disk reads.
	lo, hi := off/PageSize, (off+want-1)/PageSize
	if sequential {
		hi = min(hi+int64(f.cfg.ReadAhead), (in.size-1)/PageSize)
	}
	if err := f.readPagesLocked(in, lo, hi); err != nil {
		f.mu.Unlock()
		return 0, err
	}
	n := 0
	for int64(n) < want {
		cur := off + int64(n)
		pg := cur / PageSize
		inPage := int(cur % PageSize)
		chunk := PageSize - inPage
		if int64(chunk) > want-int64(n) {
			chunk = int(want - int64(n))
		}
		cp, err := f.pageLocked(in, pg, true)
		if err != nil {
			f.mu.Unlock()
			return n, err
		}
		copy(p[n:n+chunk], cp.data[inPage:])
		n += chunk
	}
	f.raNext[h.ino] = off + int64(n)
	f.mu.Unlock()
	return n, readErr
}

// readPagesLocked brings into the cache the pages lo..hi of in that lie
// below its size and are not cached: as per-disk runs of contiguous
// stripe space, one transfer each, issued on every disk at once. mu is
// held, and let go of while the disks work; a page some other operation
// installed meanwhile is kept (it may be dirty).
func (f *FS) readPagesLocked(in *inode, lo, hi int64) error {
	var items []flushItem
	var pages []int64
	// Each disk's items, in page order, which is its address order: the
	// extents of a file are allocated in file order from each disk's
	// growing bump allocator.
	perDisk := make([][]int, len(f.disks))
	for pg := lo; pg <= hi && pg*PageSize < in.size; pg++ {
		if _, ok := f.cache[pageKey{in.ino, pg}]; ok {
			continue
		}
		e := f.ensureExtent(in, pg*PageSize)
		perDisk[e.disk] = append(perDisk[e.disk], len(items))
		items = append(items, flushItem{disk: e.disk, off: e.off + pg*PageSize%StripeSize})
		pages = append(pages, pg)
	}
	if len(items) == 0 {
		return nil
	}
	f.mu.Unlock()
	var wg sync.WaitGroup
	errs := make([]error, len(f.disks))
	for disk, idx := range perDisk {
		if len(idx) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[disk] = f.readRuns(items, idx)
			}()
		}
	}
	wg.Wait()
	f.mu.Lock()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, pg := range pages {
		key := pageKey{in.ino, pg}
		if _, ok := f.cache[key]; ok {
			continue
		}
		f.cache[key] = &page{data: items[i].data}
		f.lruTick++
		f.lruStamp[key] = f.lruTick
	}
	f.evictLocked()
	return nil
}

// readRuns reads the items idx of one disk, one transfer per run of them
// that lie one after another, and gives each its page of it.
func (f *FS) readRuns(items []flushItem, idx []int) error {
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && items[idx[j]].off == items[idx[j-1]].off+PageSize {
			j++
		}
		buf := make([]byte, (j-i)*PageSize)
		first := items[idx[i]]
		if err := f.diskRead(first.disk, buf, first.off); err != nil {
			return err
		}
		for k := i; k < j; k++ {
			items[idx[k]].data = buf[(k-i)*PageSize : (k-i+1)*PageSize : (k-i+1)*PageSize]
		}
		i = j
	}
	return nil
}

// Truncate adjusts size (page bookkeeping only; extents are
// bump-allocated and not reclaimed in the baseline).
func (h *File) Truncate(size int64) error {
	f := h.fs
	f.chargeOp(0)
	f.mu.Lock()
	in, ok := f.inodes[h.ino]
	if !ok {
		f.mu.Unlock()
		return ErrNotExist
	}
	in.size = size
	for k := range f.cache {
		if k.ino == h.ino && k.page*PageSize >= size {
			delete(f.cache, k)
			delete(f.lruStamp, k)
		}
	}
	f.mu.Unlock()
	f.logMeta("truncate")
	return nil
}

// flushItem is one page bound for disk, or, without its data, one to be
// read from it.
type flushItem struct {
	disk int
	off  int64
	data []byte
}

// writeCoalesced writes dirty pages, merging per-disk contiguous runs
// into single transfers (one I/O per stripe unit instead of one per
// page — per-page I/O would be dominated by modelled seeks).
func (f *FS) writeCoalesced(items []flushItem) error {
	sort.Slice(items, func(a, b int) bool {
		if items[a].disk != items[b].disk {
			return items[a].disk < items[b].disk
		}
		return items[a].off < items[b].off
	})
	i := 0
	for i < len(items) {
		j := i + 1
		for j < len(items) && items[j].disk == items[i].disk &&
			items[j].off == items[j-1].off+int64(len(items[j-1].data)) {
			j++
		}
		buf := make([]byte, 0, (j-i)*PageSize)
		for k := i; k < j; k++ {
			buf = append(buf, items[k].data...)
		}
		if err := f.diskWrite(items[i].disk, buf, items[i].off); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// Sync flushes this file's dirty pages and the log.
func (h *File) Sync() error {
	f := h.fs
	_ = f.log.Flush()
	f.mu.Lock()
	var items []flushItem
	for k, p := range f.cache {
		if k.ino == h.ino && p.dirty {
			in := f.inodes[k.ino]
			e := f.ensureExtent(in, k.page*PageSize)
			items = append(items, flushItem{e.disk, e.off + k.page*PageSize%StripeSize,
				append([]byte(nil), p.data...)})
			p.dirty = false
		}
	}
	f.mu.Unlock()
	return f.writeCoalesced(items)
}

// DropCache writes back every dirty page and then drops every clean one
// from the buffer cache, so that the next read of any file comes from
// the disks, as the first read after a reboot does.
func (f *FS) DropCache() error {
	if err := f.Sync(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, p := range f.cache {
		if !p.dirty {
			delete(f.cache, k)
			delete(f.lruStamp, k)
		}
	}
	return nil
}

// Sync flushes all dirty state (the update demon body).
func (f *FS) Sync() error {
	_ = f.log.Flush()
	f.mu.Lock()
	var items []flushItem
	for k, p := range f.cache {
		if !p.dirty {
			continue
		}
		in, ok := f.inodes[k.ino]
		if !ok {
			continue
		}
		e := f.ensureExtent(in, k.page*PageSize)
		items = append(items, flushItem{e.disk, e.off + k.page*PageSize%StripeSize,
			append([]byte(nil), p.data...)})
		p.dirty = false
	}
	f.mu.Unlock()
	if err := f.writeCoalesced(items); err != nil {
		return err
	}
	f.log.Release(1 << 62)
	return nil
}
