package fs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"frangipani/internal/bufpool"
	"frangipani/internal/cache"
	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
	"frangipani/internal/wal"
)

// Errors surfaced by file system operations.
var (
	ErrPoisoned = errors.New("fs: lease lost with dirty data; file system must be unmounted")
	ErrClosed   = errors.New("fs: unmounted")
	ErrNotExist = errors.New("fs: no such file or directory")
	ErrExist    = errors.New("fs: file exists")
	ErrNotDir   = errors.New("fs: not a directory")
	ErrIsDir    = errors.New("fs: is a directory")
	ErrNotEmpty = errors.New("fs: directory not empty")
	ErrRetry    = errors.New("fs: conflict, retry") // internal
	ErrTooBig   = errors.New("fs: file size exceeds 64 KB + one large block")
	ErrNoSpace  = errors.New("fs: no space")
	ErrInval    = errors.New("fs: invalid argument")
)

// Config tunes one Frangipani server.
type Config struct {
	// SyncEvery is the update-demon period; the paper's permanent
	// locations are updated "roughly every 30 seconds".
	SyncEvery sim.Duration
	// SyncLog forces the log to Petal on every metadata operation
	// ("optionally, we allow the log records to be written
	// synchronously", §4).
	SyncLog bool
	// LeaseMargin is checked before every Petal write (§6, 15 s).
	LeaseMargin sim.Duration
	// ReadAhead caps the read-ahead window of a sequentially read file
	// handle, in 4 KB pages; 0 disables read-ahead (the Figure 8
	// experiment).
	ReadAhead int
	// FlushParallelism bounds concurrent write-back dispatches in the
	// sync demon and lock-revocation flushes: coalesced runs are
	// packed into scatter-gather WriteV batches and that many batches
	// are in flight at once, overlapping Petal transfers. Values <= 1
	// mean one batch at a time.
	FlushParallelism int
	// DataCacheCap is the data cache's capacity in 4 KB pages.
	DataCacheCap int
	// CPU cost model for the server code path.
	CPUPerOp sim.Duration
	CPUPerKB sim.Duration
	// Lock carries the lock service timing shared with the clerk.
	Lock lockservice.Config
	// Carrier selects the message transport for this server's lock
	// clerk; nil uses the world's simulated network. Daemon
	// deployments pass the rpc.TCPCarrier shared with the Petal
	// client.
	Carrier rpc.Carrier
}

// DefaultConfig returns paper-flavored settings.
func DefaultConfig() Config {
	return Config{
		SyncEvery:        30 * time.Second,
		LeaseMargin:      lockservice.DefaultLeaseMargin,
		ReadAhead:        128,  // 512 KB window: up to eight Petal chunks in flight for one stream
		FlushParallelism: 8,    // pipelined write-back, 8 batches in flight
		DataCacheCap:     8192, // 32 MB of pages
		CPUPerOp:         150 * time.Microsecond,
		CPUPerKB:         25 * time.Microsecond,
		Lock:             lockservice.DefaultConfig(),
	}
}

// metaCacheCap is the metadata cache's capacity in 512-byte sectors:
// 8 MB.
const metaCacheCap = 16384

// fsMetrics is the registry-backed home of the server's counters
// (standalone collectors when observability is unwired), named
// "fs.<name>#machine".
type fsMetrics struct {
	ops, bytesRead, bytesWritten *obs.Counter
	retries, recoveries          *obs.Counter
	raHits, raWasted, raJoins    *obs.Counter
	fills                        *obs.Counter
	specFills, specDropped       *obs.Counter
	allocSticky, allocResume     *obs.Counter
	allocRescan, allocSkipFull   *obs.Counter
	flushBatches, flushRuns      *obs.Counter
	flushPages                   *obs.Counter
	metaBatch, metaBatchSectors  *obs.Counter
	flushPeak                    *obs.Gauge
	opLat                        map[string]*obs.Histogram
}

// fsOps are the traced operations, each with an
// "fs.<op>.latency#machine" histogram.
var fsOps = []string{
	"stat", "readdir", "readdirplus", "create", "remove", "rename",
	"link", "read", "write", "truncate", "fsync", "sync", "lookup",
}

func newFSMetrics(reg *obs.Registry, machine string) fsMetrics {
	c := func(name string) *obs.Counter {
		if reg == nil {
			return obs.NewCounter()
		}
		return reg.Counter("fs." + name + "#" + machine)
	}
	m := fsMetrics{
		ops:              c("ops.count"),
		bytesRead:        c("read.bytes"),
		bytesWritten:     c("write.bytes"),
		retries:          c("retry.count"),
		recoveries:       c("recovery.count"),
		raHits:           c("readahead.hits"),
		raWasted:         c("readahead.wasted"),
		raJoins:          c("readahead.joins"),
		fills:            c("read.fills"),
		specFills:        c("read.spec.fills"),
		specDropped:      c("read.spec.dropped"),
		allocSticky:      c("alloc.sticky.hits"),
		allocResume:      c("alloc.resume.hits"),
		allocRescan:      c("alloc.rescan"),
		allocSkipFull:    c("alloc.skip.full"),
		flushBatches:     c("flush.batches"),
		flushRuns:        c("flush.runs"),
		flushPages:       c("flush.pages"),
		metaBatch:        c("meta.batch.fetches"),
		metaBatchSectors: c("meta.batch.sectors"),
		flushPeak:        obs.NewGauge(),
	}
	if reg != nil {
		m.flushPeak = reg.Gauge("fs.flush.peak#" + machine)
		m.opLat = make(map[string]*obs.Histogram, len(fsOps))
		for _, op := range fsOps {
			m.opLat[op] = reg.Histogram("fs." + op + ".latency#" + machine)
		}
	}
	return m
}

// FS is one Frangipani file server instance — or rather a view of one:
// Mount returns the view whose operations are nobody's in particular,
// As returns views of the same server whose operations are accounted
// to a principal. All views share the server's whole state.
type FS struct {
	*server
	// who is the principal this view's operations run for; "" is
	// obs.UnknownPrincipal. Only traced reads it, to stamp the
	// operation's handle: everything below takes the handle.
	who string
}

// As returns a view of the mounted file system whose operations — and
// those on files opened through it — are accounted to principal.
func (fs *FS) As(principal string) *FS { return &FS{server: fs.server, who: principal} }

// server is the state all views of one mounted file server share.
type server struct {
	w          *sim.World
	machine    string
	pc         *petal.Client
	overlapped *petal.Client // pc's view for read-ahead and write-behind (petal.Client.Overlapped)
	vd         petal.VDiskID
	lay        Layout
	cfg        Config
	clerk      *lockservice.Clerk
	log        *wal.Log
	meta       *cache.Pool
	data       *cache.Pool
	cpu        *sim.CPU

	mu       sync.Mutex
	owned    map[allocClass][]int64
	probeOff map[allocClass]int64
	// Allocator scan hints (all under mu). They are advisory: hints
	// only skip work that a scan of the authoritative bitmap (read
	// under the segment lock) would repeat, and every path that can
	// clear a bit — a local free, a remote steal revoking the segment
	// lock, lease loss — invalidates them.
	stickySeg map[allocClass]int64 // last segment that allocated; -1/absent = none
	segResume map[segKey]int64     // next bit segScan resumes from
	segFull   map[segKey]bool      // segments known full for a class
	appended  int64                // highest log seq appended
	flushed   int64                // log seq known flushed
	poisoned  bool
	closed    bool
	logSlot   int

	// inflight maps each data page some fetch is bringing in from Petal
	// to the channel that fetch closes when it is over (single flight).
	fetchMu  sync.Mutex
	inflight map[int64]chan struct{}

	// flights maps each data page some write-back is carrying to Petal
	// to that write-back (single flight, the write side of inflight);
	// behind counts the write-behind flights among them.
	flushMu sync.Mutex
	flights map[int64]*flight
	behind  int

	flushInFlight int64 // current write-back dispatches (guarded by mu)

	// atimes holds in-memory approximate access times (§2.1), folded
	// into inodes when they are next logged. Guarded by mu.
	atimes map[int64]int64

	// hints holds, for files whose inode lock a revoke took away, the
	// block map (Small, Large, Size) the inode had then: where the next
	// read of the file will probably find its pages (File.specFill).
	// Guarded by mu; at most metaCacheCap of them.
	hints map[int64]Inode

	// Observability; set once in Mount.
	m    fsMetrics
	now  obs.NowFunc
	tr   *obs.Tracer
	jr   *obs.Journal      // flight recorder (nil-safe)
	acct *obs.AccountTable // per-principal accounting (nil-safe)

	syncCancel func()

	// replaying admits one log replay at a time: the lock service asks
	// again when a replay outlasts its patience, and two replays that
	// interleave write each other's blocks back to older versions.
	replaying sync.Mutex
}

// Mkfs initializes a Frangipani file system on an (empty) Petal
// virtual disk: the params sector, the root directory inode, and its
// allocation bit. It runs without locks; the disk must not be
// mounted anywhere.
func Mkfs(pc *petal.Client, vd petal.VDiskID, lay Layout) error {
	if err := lay.Validate(); err != nil {
		return err
	}
	if err := pc.Write(vd, lay.ParamsBase, encodeParams(params{
		Magic:   paramsMagic,
		Version: 1,
		Root:    RootInum,
	})); err != nil {
		return err
	}
	// Root inode.
	sec := make([]byte, SectorSize)
	encodeInode(Inode{Type: TypeDir, Nlink: 2}, sec)
	wal.SetBlockVersion(sec, 1)
	if err := pc.Write(vd, lay.InodeAddr(RootInum), sec); err != nil {
		return err
	}
	// Allocation bit for the root inode.
	bit := lay.bitFor(classInode, RootInum)
	addr, byteOff, mask := lay.bitLoc(bit)
	bsec := make([]byte, SectorSize)
	if err := pc.Read(vd, addr, bsec); err != nil {
		return err
	}
	bsec[byteOff] |= mask
	wal.SetBlockVersion(bsec, 1)
	return pc.Write(vd, addr, bsec)
}

// Mount attaches a new Frangipani server to a shared virtual disk.
// machine is this server's identity; lockServers lists the lock
// service members.
func Mount(w *sim.World, machine string, pc *petal.Client, vd petal.VDiskID,
	lockServers []string, lay Layout, cfg Config) (*FS, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	psec := make([]byte, SectorSize)
	if err := pc.Read(vd, lay.ParamsBase, psec); err != nil {
		return nil, fmt.Errorf("fs: reading params: %w", err)
	}
	if _, err := decodeParams(psec); err != nil {
		return nil, err
	}
	fs := &FS{server: &server{
		w:          w,
		machine:    machine,
		pc:         pc,
		overlapped: pc.Overlapped(),
		vd:         vd,
		lay:        lay,
		cfg:        cfg,
		cpu:        w.CPU(machine),
		meta:       cache.NewPool(SectorSize, metaCacheCap),
		data:       cache.NewPool(BlockSize, cfg.DataCacheCap),
		owned:      make(map[allocClass][]int64),
		probeOff:   make(map[allocClass]int64),
		stickySeg:  make(map[allocClass]int64),
		segResume:  make(map[segKey]int64),
		segFull:    make(map[segKey]bool),
		atimes:     make(map[int64]int64),
		hints:      make(map[int64]Inode),
		inflight:   make(map[int64]chan struct{}),
		flights:    make(map[int64]*flight),
	}}
	fs.m = newFSMetrics(w.Obs, machine)
	if w.Obs != nil {
		fs.now = w.Obs.Now
		fs.tr = w.Obs.Tracer()
		fs.jr = w.Obs.Journal(machine)
		fs.acct = w.Obs.Accounts()
	}
	fs.meta.SetObs(w.Obs, machine+".meta")
	fs.data.SetObs(w.Obs, machine+".data")
	fs.meta.SetFlusher(func(e *cache.Entry) error { return fs.flushEntry(fs.meta, e) })
	fs.data.SetFlusher(func(e *cache.Entry) error { return fs.flushEntry(fs.data, e) })

	carrier := cfg.Carrier
	if carrier == nil {
		carrier = rpc.SimCarrier{Net: w.Net}
	}
	fs.clerk = lockservice.NewClerkWithCarrier(w, machine, string(vd), lockServers, cfg.Lock, carrier)
	fs.clerk.SetCallbacks(fs.onRevoke, fs.onRecover, fs.onLeaseLost)
	if err := fs.clerk.Open(); err != nil {
		return nil, err
	}
	fs.logSlot = fs.clerk.LogSlot()
	if fs.logSlot >= lay.LogSlots {
		fs.clerk.Close()
		return nil, fmt.Errorf("fs: out of log slots (%d servers max)", lay.LogSlots)
	}
	// Stamp Petal writes with our lease so guarded Petal servers can
	// reject expired writers (§6 hazard fix).
	pc.SetLeaseInfo(func() int64 { return fs.clerk.ExpiresAt() - int64(cfg.LeaseMargin) })

	// A fresh mount starts with an empty log: zero the slot so stale
	// records from a previous tenancy (already recovered or cleanly
	// closed) cannot be replayed.
	zero := make([]byte, lay.LogSize)
	if err := fs.petalWrite(nil, lay.LogSlotBase(fs.logSlot), zero); err != nil {
		fs.clerk.Close()
		return nil, err
	}
	fs.log = wal.New(&logRegion{fs: fs, base: fs.lay.LogSlotBase(fs.logSlot)}, lay.LogSize)
	fs.log.SetObs(w.Obs, machine)
	fs.log.SetReclaim(fs.reclaimLog)

	fs.syncCancel = w.Clock.Tick(cfg.SyncEvery, func() { _ = fs.syncVia(nil, fs.overlapped) })
	return fs, nil
}

// Machine returns the server's machine name.
func (fs *FS) Machine() string { return fs.machine }

// LogSlot returns the server's private log slot.
func (fs *FS) LogSlot() int { return fs.logSlot }

// Clerk exposes the lock clerk (tests and the backup tool use it).
func (fs *FS) Clerk() *lockservice.Clerk { return fs.clerk }

// PetalStats snapshots the underlying Petal driver's write-path RPC
// counters (benchmarks compare serial vs scatter-gather write-back).
func (fs *FS) PetalStats() petal.ClientStats { return fs.pc.Stats() }

// HealthInfo aggregates one server's live health signals for the
// cluster health probes.
type HealthInfo struct {
	// LeaseExpiresAt is when the lock-service lease lapses (ns,
	// simulated clock); Poisoned means it already has.
	LeaseExpiresAt int64
	Poisoned       bool
	// WALBacklogBytes is the log stream appended but not yet durable;
	// WALLastFlush is the timestamp of the last successful flush (0
	// before the first).
	WALBacklogBytes int64
	WALLastFlush    int64
	// Cache occupancy, per pool.
	MetaResident, MetaDirty, MetaCapacity int
	DataResident, DataDirty, DataCapacity int
}

// Health snapshots the server's health signals.
func (fs *FS) Health() HealthInfo {
	var hi HealthInfo
	hi.LeaseExpiresAt = fs.clerk.ExpiresAt()
	hi.Poisoned = fs.Poisoned()
	hi.WALBacklogBytes, hi.WALLastFlush = fs.log.FlushHealth()
	hi.MetaResident, hi.MetaDirty = fs.meta.Usage()
	hi.MetaCapacity = fs.meta.Capacity()
	hi.DataResident, hi.DataDirty = fs.data.Usage()
	hi.DataCapacity = fs.data.Capacity()
	return hi
}

// traced is where a public operation gets its handle: a root span for
// this view's principal, which fn passes down to everything it does
// that can reach a lock, the log, a cache fill or Petal. It also feeds
// the operation's latency histogram. Work that runs for no operation
// (the sync demon, write-behind, prefetch, recovery) passes a nil
// handle instead: no spans, and the unknown account.
func (fs *FS) traced(name string, fn func(op *obs.Span) error) error {
	sp := fs.tr.Start(fs.jr, "fs", name)
	if sp == nil {
		return fn(nil)
	}
	sp.Principal = fs.who
	err := fn(sp)
	d := sp.Done()
	if h := fs.m.opLat[name]; h != nil {
		h.Record(d)
	}
	fs.acct.Op(fs.who, d)
	return err
}

// accountBytes charges user-level bytes moved (in = written, out =
// read) to op's principal. Charged at the File API boundary, not the
// Petal boundary: background write-back and prefetch run for no
// operation and would otherwise dilute attribution into unknown.
func (fs *FS) accountBytes(op *obs.Span, in, out int) {
	fs.acct.Bytes(op.Ctx().Principal, int64(in), int64(out))
}

// lock acquires a lock for op. A sticky grant the clerk already holds
// is taken as it is; an acquire that has to go through the clerk's wait
// loop gets a lockservice.acquire span under op, and the wait is
// charged to op's principal.
func (fs *FS) lock(op *obs.Span, id uint64, mode lockservice.Mode) error {
	if fs.clerk.TryLock(id, mode) {
		return nil
	}
	if fs.now == nil {
		return fs.clerk.Lock(id, mode)
	}
	sp := op.Child("lockservice", "acquire")
	start := fs.now()
	err := fs.clerk.Lock(id, mode)
	fs.acct.LockWait(op.Ctx().Principal, fs.now()-start)
	sp.Done()
	return err
}

// lat records in op's histogram the time since start, which the caller
// took from latStart: for hot internal paths that want a histogram
// without span overhead (defer fs.lat("lookup", fs.latStart())).
func (fs *FS) lat(op string, start int64) {
	if fs.now != nil {
		fs.m.opLat[op].Record(fs.now() - start)
	}
}

func (fs *FS) latStart() int64 {
	if fs.now == nil {
		return 0
	}
	return fs.now()
}

// Unmount cleanly detaches: flush everything, close the lock table.
func (fs *FS) Unmount() error {
	err := fs.Sync()
	fs.mu.Lock()
	fs.closed = true
	fs.mu.Unlock()
	if fs.syncCancel != nil {
		fs.syncCancel()
	}
	fs.clerk.Close()
	return err
}

// Crash simulates this Frangipani server failing abruptly: the sync
// demon stops, operations fail, and the clerk goes silent without
// closing its session — so the lock service will expire the lease and
// run recovery on this server's log from another machine (§7:
// "Removing a Frangipani server ... It is adequate to simply shut
// the server off").
func (fs *FS) Crash() {
	fs.mu.Lock()
	fs.closed = true
	fs.mu.Unlock()
	fs.jr.Record("fs", "crash", "induced", 0, int64(fs.logSlot), "")
	if fs.syncCancel != nil {
		fs.syncCancel()
	}
	fs.clerk.Abandon()
}

// Poisoned reports whether the server has shut itself off after
// losing its lease with dirty data.
func (fs *FS) Poisoned() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.poisoned
}

func (fs *FS) usable() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.poisoned {
		return ErrPoisoned
	}
	if fs.closed {
		return ErrClosed
	}
	return nil
}

func (fs *FS) chargeOp(bytes int) {
	fs.cpu.Use(fs.cfg.CPUPerOp + sim.Duration(bytes/1024)*fs.cfg.CPUPerKB)
	fs.m.ops.Inc()
}

// petalWrite guards every write with the lease check of §6: "A
// Frangipani server checks that its lease is still valid (and will
// still be valid for margin seconds) before attempting any write to
// Petal." A lease that is merely *near* expiry (renewals delayed) is
// indeterminate: the write waits for the next renewal round rather
// than failing, because callers on the revoke path would otherwise
// silently drop dirty data that the next lock holder depends on.
// Only a definitively lost lease fails the write.
func (fs *FS) petalWrite(op *obs.Span, addr int64, p []byte) error {
	if err := fs.waitLeaseForWrite(op); err != nil {
		return err
	}
	return fs.pc.For(op).Write(fs.vd, addr, p)
}

// petalWriteV is the scatter-gather variant of petalWrite: one lease
// check covers the whole batch, which the Petal driver splits by
// chunk and dispatches with bounded parallelism. It writes through via:
// fs.pc, or fs.overlapped for write-behind.
func (fs *FS) petalWriteV(op *obs.Span, via *petal.Client, exts []petal.Extent) error {
	if err := fs.waitLeaseForWrite(op); err != nil {
		return err
	}
	return via.For(op).WriteV(fs.vd, exts)
}

func (fs *FS) waitLeaseForWrite(op *obs.Span) error {
	defer op.Child("lockservice", "lease-check").Done()
	deadline := fs.w.Clock.Now() + sim.Time(2*fs.cfg.Lock.LeaseDuration)
	for !fs.clerk.LeaseValid(fs.cfg.LeaseMargin) {
		if fs.clerk.LeaseLost() || fs.w.Clock.Now() >= deadline {
			return lockservice.ErrLeaseLost
		}
		fs.w.Clock.Sleep(fs.cfg.Lock.LeaseDuration / 10)
	}
	return nil
}

// logRegion adapts a log slot window to the WAL's BlockRegion.
type logRegion struct {
	fs   *FS
	base int64
}

func (r *logRegion) ReadAt(p []byte, off int64) error {
	return r.fs.pc.Read(r.fs.vd, r.base+off, p)
}

func (r *logRegion) WriteAt(p []byte, off int64) error { return r.WriteAtOp(nil, p, off) }

// WriteAtOp is what the WAL writes through when an operation forced the
// flush: the Petal write is part of that operation's trace and account.
func (r *logRegion) WriteAtOp(op *obs.Span, p []byte, off int64) error {
	return r.fs.petalWrite(op, r.base+off, p)
}

// directDev adapts the whole virtual disk for WAL replay during
// recovery.
type directDev struct{ fs *FS }

func (d *directDev) ReadAt(p []byte, off int64) error {
	return d.fs.pc.Read(d.fs.vd, off, p)
}

func (d *directDev) WriteAt(p []byte, off int64) error {
	return d.fs.petalWrite(nil, off, p)
}

// ---- cached block I/O ----

// readMeta returns the cached metadata sector at addr, loading it
// from Petal on a miss, which is charged to op's principal. owner is
// the covering lock.
func (fs *FS) readMeta(op *obs.Span, addr int64, owner uint64) (*cache.Entry, error) {
	if e, ok := fs.meta.Lookup(addr); ok {
		return e, nil
	}
	return fs.fillMeta(op, addr, owner)
}

// fillMeta is readMeta's miss: the sector comes from Petal.
func (fs *FS) fillMeta(op *obs.Span, addr int64, owner uint64) (*cache.Entry, error) {
	fs.acct.CacheMiss(op.Ctx().Principal, 1)
	sp := op.Child("cache", "fill")
	defer sp.Done()
	// Pooled scratch: Fill copies into the cache's own page, so the
	// fill buffer recycles immediately.
	bufp := bufpool.Get(SectorSize)
	defer bufpool.Put(bufp)
	buf := *bufp
	if err := fs.pc.For(sp).Read(fs.vd, addr, buf); err != nil {
		return nil, err
	}
	// A concurrent lookup may have filled the sector meanwhile, or a
	// writer dirtied it: Fill keeps theirs.
	e, _ := fs.meta.Fill(addr, buf, owner)
	return e, nil
}

// metaFill names one metadata sector and the lock that covers it.
type metaFill struct {
	addr  int64
	owner uint64
}

// readMetaBatch warms the metadata cache for every named sector with
// one scatter-gather read: the sectors still missing are fetched in a
// single petal ReadV and inserted. Directory scans and batched stat
// paths collect their sector addresses up front and call this, so a
// cold scan costs one round trip instead of one per sector. Callers
// then go through readMeta for the decoded entries; after a
// successful batch those are hits.
func (fs *FS) readMetaBatch(op *obs.Span, fills []metaFill) error {
	var miss []metaFill
	for _, f := range fills {
		if _, ok := fs.meta.Peek(f.addr); !ok {
			miss = append(miss, f)
		}
	}
	if len(miss) == 0 {
		return nil
	}
	fs.acct.CacheMiss(op.Ctx().Principal, 1)
	sp := op.Child("cache", "fillv")
	defer sp.Done()
	bufsp := bufpool.Get(len(miss) * SectorSize)
	defer bufpool.Put(bufsp)
	bufs := *bufsp
	exts := make([]petal.ReadExtent, len(miss))
	for i := range miss {
		exts[i] = petal.ReadExtent{Off: miss[i].addr, Dst: bufs[i*SectorSize : (i+1)*SectorSize]}
	}
	if err := fs.pc.For(sp).ReadV(fs.vd, exts); err != nil {
		return err
	}
	fs.m.metaBatch.Inc()
	fs.m.metaBatchSectors.Add(int64(len(miss)))
	for i, f := range miss {
		fs.meta.Fill(f.addr, bufs[i*SectorSize:(i+1)*SectorSize], f.owner)
	}
	return nil
}

// readData returns the cached 4 KB data page at addr, reading it from
// Petal on a miss. The caller holds owner, the covering lock.
func (fs *FS) readData(op *obs.Span, addr int64, owner uint64) (*cache.Entry, error) {
	if e, ok := fs.data.Lookup(addr); ok {
		return e, nil
	}
	e, _, err := fs.fetchData(op, fs.pc, []int64{addr}, owner)
	return e, err
}

// fetchData returns the data page at addrs[0] for a caller that holds
// owner and needs the page now. Whichever pages of addrs are neither
// cached nor on their way come in with it in one Petal read; pages
// another fetch (a prefetch, usually) has in flight are waited for,
// not read a second time, and the wait is counted in
// fs.readahead.joins: a stream that is far enough ahead never joins.
// own reports that this call itself went to Petal for addrs[0]; each
// time it does, op's principal is charged the miss. It reads through
// via: fs.pc, or fs.overlapped for a read beside its stream's prefetches.
func (fs *FS) fetchData(op *obs.Span, via *petal.Client, addrs []int64, owner uint64) (e *cache.Entry, own bool, err error) {
	// Stack scratch for a 64 KB request; longer ones spill to the heap.
	var mineRoom [petal.ChunkSize / BlockSize]int64
	var theirsRoom [4]chan struct{}
	for {
		mine, done, theirs := fs.claimPages(addrs, mineRoom[:0], theirsRoom[:0])
		if len(mine) > 0 {
			fs.m.fills.Inc()
			fs.acct.CacheMiss(op.Ctx().Principal, 1)
			sp := op.Child("cache", "fill")
			e, err = fs.fillPages(via.For(sp), mine, done, owner, true)
			sp.Done()
		}
		if len(theirs) > 0 {
			fs.m.raJoins.Inc()
		}
		for _, ch := range theirs {
			<-ch
		}
		if err != nil {
			return nil, false, err
		}
		if len(mine) > 0 && mine[0] == addrs[0] {
			return e, true, nil
		}
		if e, ok := fs.data.Peek(addrs[0]); ok {
			return e, false, nil
		}
		// The fetch we joined failed, or was discarded at its validity
		// gate: fetch the page ourselves.
	}
}

// claimPages is the single-flight gate every data-page fetch passes.
// Of addrs it claims, in fs.inflight, the pages that are neither
// cached nor already claimed (appended to mine, released by fillPages,
// which closes done), and appends to theirs the channels of the fetches
// that hold the others. mine may be addrs[:0]: the claimed pages are
// filtered in place. The cache is consulted under fetchMu and fillPages
// inserts before it releases, so a page is never seen as neither cached
// nor in flight while a fetch of it is landing.
func (fs *FS) claimPages(addrs, mine []int64, theirs []chan struct{}) ([]int64, chan struct{}, []chan struct{}) {
	var done chan struct{}
	fs.fetchMu.Lock()
	defer fs.fetchMu.Unlock()
	for _, a := range addrs {
		if ch, busy := fs.inflight[a]; busy {
			if len(theirs) == 0 || theirs[len(theirs)-1] != ch {
				theirs = append(theirs, ch)
			}
			continue
		}
		if _, hit := fs.data.Peek(a); hit {
			continue
		}
		if done == nil {
			done = make(chan struct{})
		}
		fs.inflight[a] = done
		mine = append(mine, a)
	}
	return mine, done, theirs
}

// fillPages reads the claimed pages through pc with one scatter-gather
// Petal read (one extent per contiguous run, which the Petal driver
// splits by chunk and fans out over servers and disks), inserts them
// under owner, and releases the claims. It returns the entry of mine[0].
//
// A foreground caller holds owner (locked) and passes the view of its
// operation. A prefetch has neither: it runs for no operation, through
// fs.overlapped, and without the lock, like the paper's UFS-derived
// read-ahead, and only touches it here, briefly, as a validity gate — if the lock was
// revoked meanwhile the data "must be discarded, and the work to read
// it turns out to have been wasted" (§9.4), so no stale page ever
// enters the cache. A prefetch is one chunk: fs.readahead.hits counts
// the chunks that landed, fs.readahead.wasted the bytes of those that
// did not.
func (fs *FS) fillPages(pc *petal.Client, mine []int64, done chan struct{}, owner uint64, locked bool) (first *cache.Entry, err error) {
	defer fs.unclaim(mine, done)
	// Pooled scratch: Fill copies into the cache's own page.
	bufp := bufpool.Get(len(mine) * BlockSize)
	defer bufpool.Put(bufp)
	buf := *bufp
	var extRoom [4]petal.ReadExtent // stack scratch: a fill is a run or a few
	if err := pc.ReadV(fs.vd, pageRuns(extRoom[:0], mine, buf)); err != nil {
		return nil, err
	}
	fs.m.bytesRead.Add(int64(len(buf)))
	if !locked {
		if !fs.clerk.TryLock(owner, lockservice.Shared) {
			fs.m.raWasted.Add(int64(len(buf)))
			return nil, nil
		}
		defer fs.clerk.Unlock(owner)
		fs.m.raHits.Inc()
	}
	return fs.fillCache(mine, buf, owner), nil
}

// pageRuns appends to exts one extent per run of contiguous pages of
// mine, each reading into its share of buf, which holds a page for each.
func pageRuns(exts []petal.ReadExtent, mine []int64, buf []byte) []petal.ReadExtent {
	for i := 0; i < len(mine); {
		j := i + 1
		for j < len(mine) && mine[j] == mine[j-1]+BlockSize {
			j++
		}
		exts = append(exts, petal.ReadExtent{Off: mine[i], Dst: buf[i*BlockSize : j*BlockSize]})
		i = j
	}
	return exts
}

// fillCache enters the pages mine, read into buf, under owner, and
// returns the entry of mine[0]. A writer may have raced a page in: Fill
// keeps theirs.
func (fs *FS) fillCache(mine []int64, buf []byte, owner uint64) (first *cache.Entry) {
	for i, a := range mine {
		e, _ := fs.data.Fill(a, buf[i*BlockSize:(i+1)*BlockSize], owner)
		if i == 0 {
			first = e
		}
	}
	return first
}

// unclaim ends a fetch's claims: its pages leave fs.inflight, and
// whoever waits for them wakes up.
func (fs *FS) unclaim(mine []int64, done chan struct{}) {
	fs.fetchMu.Lock()
	for _, a := range mine {
		delete(fs.inflight, a)
	}
	fs.fetchMu.Unlock()
	close(done)
}

// ensureLogFlushed enforces write-ahead order: before a block dirtied
// by the record at seq may be written to Petal, the log must be
// durable through seq. Concurrent callers group-commit inside the
// WAL, so redundant calls are cheap.
func (fs *FS) ensureLogFlushed(op *obs.Span, seq int64) error {
	if seq == 0 {
		return nil
	}
	fs.mu.Lock()
	need := seq > fs.flushed
	target := fs.appended
	fs.mu.Unlock()
	if !need {
		return nil
	}
	if err := fs.log.FlushOp(op); err != nil {
		return err
	}
	fs.mu.Lock()
	if target > fs.flushed {
		fs.flushed = target
	}
	fs.mu.Unlock()
	return nil
}

// flushEntry makes one dirty entry durable, honoring write-ahead
// order: the log is forced through the entry's sequence first. It is
// the pools' eviction flusher, and the pools know of no operation: the
// write is nobody's.
func (fs *FS) flushEntry(pool *cache.Pool, e *cache.Entry) error {
	if err := fs.ensureLogFlushed(nil, pool.EntrySeq(e)); err != nil {
		return err
	}
	if pool == fs.data {
		// An older snapshot of the page may be in flight; it must not
		// land after this one.
		fs.flushMu.Lock()
		fl := fs.flights[e.Addr]
		fs.flushMu.Unlock()
		if fl != nil {
			fl.landed.Wait()
		}
	}
	// Pooled scratch: petalWrite snapshots the payload before it returns.
	bufp := bufpool.Get(pool.BlockSize())
	defer bufpool.Put(bufp)
	buf := *bufp
	var gen [1]int64
	pool.SnapshotBatch([]*cache.Entry{e}, buf, gen[:])
	if err := fs.petalWrite(nil, e.Addr, buf); err != nil {
		return err
	}
	fs.m.bytesWritten.Add(int64(len(buf)))
	pool.MarkCleanIf(e, gen[0])
	return nil
}

// ---- transactions ----

// lockExtraMode is the mode for mid-operation extra locks.
const lockExtraMode = lockservice.Exclusive

// txn accumulates one operation's metadata changes; commit turns
// them into a single log record (so the whole operation replays
// atomically per block) and marks the touched cache entries dirty.
// withTxn makes one per mutating operation. It carries room of its own
// for what an operation touches — txnSectors sectors, txnRanges byte
// ranges of them, txnSegs locks taken on the way — so that filling it
// allocates nothing; only a wider operation (a rename across
// directories over an existing file, a truncate freeing many blocks)
// spills to the heap.
type txn struct {
	fs      *FS
	op      *obs.Span      // the operation the transaction belongs to
	sectors []*cache.Entry // touched, in the order first touched; a handful, searched linearly
	ranges  []logRange     // what to log of them
	segs    []uint64       // bitmap segment locks acquired by the allocator
	// pageOwner is the inode lock that owns data pages created by
	// this transaction (set by operations that allocate blocks).
	pageOwner uint64

	sectorRoom [txnSectors]*cache.Entry
	rangeRoom  [txnRanges]logRange
	segRoom    [txnSegs]uint64
}

const (
	txnSectors = 6
	txnRanges  = 16
	txnSegs    = 4
)

// newTxn returns an empty transaction of fs for op, its lists on its
// own room.
func newTxn(fs *FS, op *obs.Span) *txn {
	t := &txn{fs: fs, op: op}
	t.sectors, t.ranges, t.segs = t.sectorRoom[:0], t.rangeRoom[:0], t.segRoom[:0]
	return t
}

// logRange is a modified byte range [lo, hi) of sectors[sector].
type logRange struct{ sector, lo, hi int }

// logGap is the most unchanged bytes between two changed runs that is
// cheaper to log with them as one range than to open a second update.
const logGap = 8

// update writes newBytes at off into the entry, recording the
// changed runs (diffed, so records stay small — the paper's are
// 80-128 bytes).
func (t *txn) update(e *cache.Entry, off int, newBytes []byte) {
	old := e.Data[off : off+len(newBytes)]
	runStart := -1
	for i := 0; i <= len(newBytes); i++ {
		changed := i < len(newBytes) && old[i] != newBytes[i]
		if changed && runStart < 0 {
			runStart = i
		}
		if !changed && runStart >= 0 {
			t.addSpan(e, off+runStart, off+i)
			runStart = -1
		}
	}
	t.fs.meta.Mutate(func() { copy(old, newBytes) })
}

// forceUpdate records a span even if bytes compare equal (used when
// the semantic state must be re-logged, e.g. allocation bits).
func (t *txn) forceUpdate(e *cache.Entry, off int, newBytes []byte) {
	t.fs.meta.Mutate(func() { copy(e.Data[off:], newBytes) })
	t.addSpan(e, off, off+len(newBytes))
}

// addSpan adds [lo, hi) to what is logged of e, which it makes touched.
// update reports a sector's runs in ascending order, so most of them
// extend the range before; commit merges the rest.
func (t *txn) addSpan(e *cache.Entry, lo, hi int) {
	sector := slices.Index(t.sectors, e)
	if sector < 0 {
		sector = len(t.sectors)
		t.sectors = append(t.sectors, e)
	}
	if n := len(t.ranges); n > 0 {
		if last := &t.ranges[n-1]; last.sector == sector && lo >= last.lo && lo <= last.hi+logGap {
			last.hi = max(last.hi, hi)
			return
		}
	}
	t.ranges = append(t.ranges, logRange{sector, lo, hi})
}

// mergeRanges sorts rs by sector and offset and coalesces, within a
// sector, ranges that overlap or lie within logGap of each other.
func mergeRanges(rs []logRange) []logRange {
	slices.SortFunc(rs, func(a, b logRange) int {
		return cmp.Or(cmp.Compare(a.sector, b.sector), cmp.Compare(a.lo, b.lo))
	})
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && out[n-1].sector == r.sector && r.lo <= out[n-1].hi+logGap {
			out[n-1].hi = max(out[n-1].hi, r.hi)
			continue
		}
		out = append(out, r)
	}
	return out
}

// commit appends the log record and dirties the touched entries.
// The caller still holds all covering locks, which is what lets the
// updates alias the cached sectors: nothing changes them before Append
// has copied them into the log's buffer.
func (t *txn) commit() error {
	if len(t.sectors) == 0 {
		return nil
	}
	t.fs.meta.Mutate(func() {
		for _, e := range t.sectors {
			wal.SetBlockVersion(e.Data, wal.BlockVersion(e.Data)+1)
		}
	})
	var room [txnRanges]wal.Update // on the stack; what a transaction has no room for spills here too
	ups := room[:0]
	for _, r := range mergeRanges(t.ranges) {
		e := t.sectors[r.sector]
		ups = append(ups, wal.Update{Addr: e.Addr, Off: r.lo, Data: e.Data[r.lo:r.hi], Ver: wal.BlockVersion(e.Data)})
	}
	seq, err := t.fs.log.Append(ups)
	if err != nil {
		return err
	}
	t.fs.acct.WAL(t.op.Ctx().Principal, int64(wal.RecordSize(ups)))
	for _, e := range t.sectors {
		t.fs.meta.MarkDirty(e, seq)
	}
	t.fs.mu.Lock()
	if seq > t.fs.appended {
		t.fs.appended = seq
	}
	t.fs.mu.Unlock()
	if t.fs.cfg.SyncLog {
		if err := t.fs.log.FlushOp(t.op); err != nil {
			return err
		}
		t.fs.mu.Lock()
		if seq > t.fs.flushed {
			t.fs.flushed = seq
		}
		t.fs.mu.Unlock()
	}
	return nil
}

// lockExtra acquires an additional exclusive lock that is held until
// the transaction's locks are released (used for locks discovered
// mid-operation, like a freshly allocated inode's).
func (t *txn) lockExtra(id uint64) error {
	if err := t.fs.lock(t.op, id, lockExtraMode); err != nil {
		return err
	}
	t.segs = append(t.segs, id)
	return nil
}

// releaseSegs unlocks the bitmap segments (and extra locks) the
// transaction acquired mid-flight (sticky: the grants stay cached at
// the clerk).
func (t *txn) releaseSegs() {
	for _, id := range t.segs {
		t.fs.clerk.Unlock(id)
	}
	t.segs = nil
}

// ---- sync demon and write-back ----

// Sync is the update demon body: force the log, write back all dirty
// blocks, then let the log reclaim the records ("the permanent
// locations are updated periodically (roughly every 30 seconds) by
// the update demon", §4). Metadata and data write-back are two jobs
// for the flush workers, so with FlushParallelism > 1 they proceed
// concurrently; each batch still honors the per-entry log-before-data
// rule. The demon writes through fs.overlapped: nobody waits for it,
// and its batches overlap one another, so none is parted.
func (fs *FS) Sync() error {
	return fs.traced("sync", fs.sync)
}

// sync is Sync for op, which waits for it: through fs.pc.
func (fs *FS) sync(op *obs.Span) error { return fs.syncVia(op, fs.pc) }

// syncVia forces the log and writes every dirty block back through via.
func (fs *FS) syncVia(op *obs.Span, via *petal.Client) error {
	fs.mu.Lock()
	if fs.closed && fs.poisoned {
		fs.mu.Unlock()
		return ErrPoisoned
	}
	target := fs.appended
	fs.mu.Unlock()

	if err := fs.log.FlushOp(op); err != nil {
		return err
	}
	fs.mu.Lock()
	if target > fs.flushed {
		fs.flushed = target
	}
	fs.mu.Unlock()

	err := fs.flushWorkers(2, func(i int) error {
		if i == 0 {
			return fs.flushRuns(op, via, fs.meta, fs.meta.AllDirty())
		}
		return fs.flushData(op, via, fs.data.AllDirty())
	})
	if err == nil {
		fs.log.Release(target)
	}
	return err
}

// flight is one write-back of data pages on its way to Petal: one
// allocation, its pages on its own room while they fit a chunk. The
// pages stay claimed in fs.flights, and dirty, until land ends it; err
// is set before that.
type flight struct {
	landed sync.WaitGroup // done once it has landed
	err    error
	pages  []*cache.Entry
	room   [petal.ChunkSize / BlockSize]*cache.Entry
}

// claimDirty is the single-flight gate every data write-back passes,
// the write side of claimPages. Of es (which it consumes) it claims, in
// fs.flights, the pages that are dirty and in no flight, for a new
// flight (fl, nil if none; released by land), and returns the others
// that some flight carries (joined, filtered in place in es) with those
// flights (appended to theirs). Dirtiness is read after the claim table,
// under both locks: a flight marks its pages clean before it lets go of
// them, so a page is never seen as neither claimed nor clean while a
// write of it is landing, and a page that is claimed stays dirty, and so
// visible to whoever must wait for it, until it has landed.
func (fs *FS) claimDirty(es []*cache.Entry, theirs []*flight) (fl *flight, _ []*flight, joined []*cache.Entry) {
	joined = es[:0]
	fs.flushMu.Lock()
	defer fs.flushMu.Unlock()
	fs.data.Mutate(func() {
		for _, e := range es {
			if other, busy := fs.flights[e.Addr]; busy {
				if !slices.Contains(theirs, other) {
					theirs = append(theirs, other)
				}
				joined = append(joined, e)
				continue
			}
			if !e.Dirty {
				continue
			}
			if fl == nil {
				fl = new(flight)
				fl.landed.Add(1)
				fl.pages = fl.room[:0]
			}
			fs.flights[e.Addr] = fl
			fl.pages = append(fl.pages, e)
		}
	})
	return fl, theirs, joined
}

// land ends a flight: its claims go and whoever joined it wakes up.
func (fs *FS) land(fl *flight, err error) {
	fs.flushMu.Lock()
	for _, e := range fl.pages {
		delete(fs.flights, e.Addr)
	}
	fs.flushMu.Unlock()
	fl.err = err
	fl.landed.Done()
}

// flushData writes back what the data pages es held when it was called,
// or something newer: it sends the dirty ones that no flight is carrying
// (snapshots taken now) and joins the flights that carry the rest, so a
// page goes to Petal once however many flushers want it there. A joined
// flight may have taken its snapshot before the call; whichever of its
// pages is still dirty once it has landed was written after that
// snapshot, and a second pass sends it — or joins a flight that claimed
// it after the first one landed, and so after the call began. Two passes
// are therefore all a caller is owed, however fast the pages are being
// written again; what is written behind a pass is its writer's next
// flush. It returns the first error of its own writes and of the flights
// it joined; failed pages stay dirty. It writes through via.
func (fs *FS) flushData(op *obs.Span, via *petal.Client, es []*cache.Entry) error {
	var theirsRoom [4]*flight // stack scratch: the flights a pass joins are few
	for pass := 0; pass < 2 && len(es) > 0; pass++ {
		fl, theirs, joined := fs.claimDirty(es, theirsRoom[:0])
		var err error
		if fl != nil {
			err = fs.flushRuns(op, via, fs.data, fl.pages)
			fs.land(fl, err)
		}
		for _, other := range theirs {
			other.landed.Wait()
			if err == nil {
				err = other.err
			}
		}
		if err != nil {
			return err
		}
		es = joined
	}
	return nil
}

// flushBehind hands the dirty pages among es (the pages of a span a
// sequential writer has just filled, see wstream) to the flush workers
// now, in the background, instead of leaving them for the next fsync.
// The caller holds the pages' inode lock; the claims made here, before
// it lets go, are what a revoke, an fsync or a truncate then waits for.
// With Config.FlushParallelism write-behind flights already under way it
// starts nothing and reports false: the writer is ahead of Petal and the
// span goes out with the next one. The flight outlives the write that
// started it, so it runs for no operation, through fs.overlapped: the
// flights overlap one another already, so none is parted.
func (fs *FS) flushBehind(es []*cache.Entry) bool {
	fs.flushMu.Lock()
	if fs.behind >= max(fs.cfg.FlushParallelism, 1) {
		fs.flushMu.Unlock()
		return false
	}
	fs.behind++
	fs.flushMu.Unlock()
	if fl, _, _ := fs.claimDirty(es, nil); fl != nil {
		go fs.flyBehind(fl)
	} else {
		fs.behindLanded()
	}
	return true
}

// flyBehind carries a write-behind flight to Petal.
func (fs *FS) flyBehind(fl *flight) {
	fs.land(fl, fs.flushRuns(nil, fs.overlapped, fs.data, fl.pages))
	fs.behindLanded()
}

func (fs *FS) behindLanded() {
	fs.flushMu.Lock()
	fs.behind--
	fs.flushMu.Unlock()
}

// awaitFlights waits until no flight carries a page of in's blocks: a
// block may go back to the allocator, or be decommitted, only when
// nothing is still on its way to it.
func (fs *FS) awaitFlights(in Inode) {
	var wait []*flight
	fs.flushMu.Lock()
	for addr, fl := range fs.flights {
		if fs.inodeHasPage(in, addr) && !slices.Contains(wait, fl) {
			wait = append(wait, fl)
		}
	}
	fs.flushMu.Unlock()
	for _, fl := range wait {
		fl.landed.Wait()
	}
}

// flushRun is one coalesced write-back unit: contiguous dirty blocks
// and the dirty generations their snapshot was taken at.
type flushRun struct {
	entries []*cache.Entry
	gens    []int64
}

// flushBatch is a stretch of a write-back's runs that one scatter-gather
// write carries, snapshotted into one buffer: exts[i] is runs[i]'s
// address and its share of the buffer.
type flushBatch struct {
	runs  []flushRun
	exts  []petal.Extent
	bytes int
	buf   *[]byte
}

// maxRunBytes caps one coalesced run (matches Petal's large-transfer
// sweet spot without starving concurrency).
const maxRunBytes = 1 << 20

// maxBatchBytes caps one scatter-gather dispatch; the Petal driver
// further splits batches by replica server.
const maxBatchBytes = 1 << 20

// writeBack is what one flushRuns call builds: its runs, their
// generations, its batches and their extents, with the call's
// arguments for the workers. It comes from writeBacks and goes back when
// the call returns, so a write-back allocates none of it: WriteV copies
// what it needs of the extents, and each batch's buffer is recycled, or
// not, by writeBatch. write is the bound writeBatch the workers run, made
// once per writeBack rather than once per call.
type writeBack struct {
	fs      *FS
	op      *obs.Span
	via     *petal.Client
	pool    *cache.Pool
	runs    []flushRun
	gens    []int64
	batches []flushBatch
	exts    []petal.Extent
	write   func(i int) error
}

var writeBacks = sync.Pool{New: func() any {
	w := new(writeBack)
	w.write = func(i int) error { return w.fs.writeBatch(w.op, w.via, w.pool, &w.batches[i]) }
	return w
}}

// plan sorts dirty by address, cuts it into runs of adjacent blocks and
// packs the runs into batches.
func (w *writeBack) plan(dirty []*cache.Entry) {
	blockSize := w.pool.BlockSize()
	slices.SortFunc(dirty, func(a, b *cache.Entry) int { return cmp.Compare(a.Addr, b.Addr) })
	w.gens = slices.Grow(w.gens[:0], len(dirty))[:len(dirty)]
	w.runs = w.runs[:0]
	for i := 0; i < len(dirty); {
		j := i + 1
		for j < len(dirty) && dirty[j].Addr == dirty[j-1].Addr+int64(blockSize) &&
			(dirty[j].Addr-dirty[i].Addr) < maxRunBytes {
			j++
		}
		w.runs = append(w.runs, flushRun{entries: dirty[i:j], gens: w.gens[i:j]})
		i = j
	}
	w.exts = slices.Grow(w.exts[:0], len(w.runs))[:len(w.runs)]
	w.batches = w.batches[:0]
	lo, bytes := 0, 0
	for i, r := range w.runs {
		n := len(r.entries) * blockSize
		if i > lo && bytes+n > maxBatchBytes {
			w.batches = append(w.batches, flushBatch{runs: w.runs[lo:i], exts: w.exts[lo:i], bytes: bytes})
			lo, bytes = i, 0
		}
		bytes += n
	}
	w.batches = append(w.batches, flushBatch{runs: w.runs[lo:], exts: w.exts[lo:], bytes: bytes})
}

// free forgets what the write-back pointed at and pools it again.
func (w *writeBack) free() {
	clear(w.runs)
	clear(w.batches)
	clear(w.exts)
	w.fs, w.op, w.via, w.pool = nil, nil, nil, nil
	writeBacks.Put(w)
}

// snapshot copies the batch's blocks into one buffer, run by run.
// Generations are taken with the copy, so a concurrent re-dirty keeps
// the entry dirty (MarkCleanIfBatch will skip it). A batch of up to a
// chunk — what a stream of small batches is made of — takes its buffer
// from the pool; a larger one (the sync demon's, mostly) is rare, and
// the pool would round it up to the next size class and keep that.
func (b *flushBatch) snapshot(pool *cache.Pool) {
	if b.bytes <= petal.ChunkSize {
		b.buf = bufpool.Get(b.bytes)
	} else {
		buf := make([]byte, b.bytes)
		b.buf = &buf
	}
	rest := *b.buf
	for i, r := range b.runs {
		n := len(r.entries) * pool.BlockSize()
		pool.SnapshotBatch(r.entries, rest[:n], r.gens)
		b.exts[i] = petal.Extent{Off: r.entries[0].Addr, Data: rest[:n]}
		rest = rest[n:]
	}
}

// flushRuns writes back a set of dirty entries from one pool,
// log-first: coalesced runs are packed into scatter-gather batches
// and dispatched through the flush workers, so one cache-sync round
// trip carries many runs and, with FlushParallelism > 1, transfers
// overlap. It writes through via (petalWriteV) and sorts dirty.
func (fs *FS) flushRuns(op *obs.Span, via *petal.Client, pool *cache.Pool, dirty []*cache.Entry) error {
	if len(dirty) == 0 {
		return nil
	}
	// Log-before-data: force the log through the newest record
	// covering any of these blocks before writing them in place.
	if err := fs.ensureLogFlushed(op, pool.MaxSeq(dirty)); err != nil {
		return err
	}
	w := writeBacks.Get().(*writeBack)
	defer w.free()
	w.fs, w.op, w.via, w.pool = fs, op, via, pool
	w.plan(dirty)
	for i := range w.batches {
		w.batches[i].snapshot(pool)
	}
	return fs.flushWorkers(len(w.batches), w.write)
}

// recycleWithin is how long a WriteV may take, in simulated time, and
// still have had every one of its RPCs answered: the Petal driver gives
// each several seconds before it fails over. A call that got no answer
// may still be queued at the carrier with the payload, and a WriteV
// that failed over past it returns nil all the same.
const recycleWithin = time.Second

// writeBatch sends one batch of runs as a single scatter-gather write
// and marks the covered entries clean on success. The batch's buffer
// goes back to the pool once nothing can reference it any more — WriteV
// succeeded with every RPC answered — and to the garbage collector
// otherwise (the rule petal.Client.Write follows for its snapshots).
func (fs *FS) writeBatch(op *obs.Span, via *petal.Client, pool *cache.Pool, b *flushBatch) error {
	fs.noteFlushInFlight(1)
	start := fs.w.Clock.Now()
	err := fs.petalWriteV(op, via, b.exts)
	answered := fs.w.Clock.Now()-start < sim.Time(recycleWithin)
	fs.noteFlushInFlight(-1)
	if err != nil {
		return err
	}
	fs.m.bytesWritten.Add(int64(b.bytes))
	fs.m.flushBatches.Inc()
	fs.m.flushRuns.Add(int64(len(b.runs)))
	for _, r := range b.runs {
		pool.MarkCleanIfBatch(r.entries, r.gens)
		fs.m.flushPages.Add(int64(len(r.entries)))
	}
	if answered {
		bufpool.Put(b.buf) // keeps only what came from the pool
	}
	return nil
}

// flushWorkers runs fn(i) for every i in [0, n) with up to
// FlushParallelism of them in flight, the caller's goroutine taking
// part. All n run regardless of failures; the error of the lowest index
// that failed is returned.
func (fs *FS) flushWorkers(n int, fn func(int) error) error {
	return petal.BoundedPar(fs.cfg.FlushParallelism, n, fn)
}

// noteFlushInFlight tracks write-back batches in flight and their
// peak.
func (fs *FS) noteFlushInFlight(d int64) {
	fs.mu.Lock()
	fs.flushInFlight += d
	cur := fs.flushInFlight
	fs.mu.Unlock()
	fs.m.flushPeak.SetMax(cur)
}

// reclaimLog is the WAL's space-pressure callback: write in place, log
// first, every sector that still holds an update from a record through
// seq, so that the records' space can be reused. Whoever's append tipped
// the log over, the space is everybody's: it runs for no operation.
func (fs *FS) reclaimLog(through int64) {
	if err := fs.flushRuns(nil, fs.pc, fs.meta, fs.meta.DirtyThrough(through)); err == nil {
		fs.log.Release(through)
	}
}

// ---- lock service callbacks ----

// onRevoke implements §5's coherence actions when another server
// wants a conflicting lock. A revoke is nobody's operation, but it roots
// a trace of its own: the flush it triggers (wal + petal spans) is
// followable like any foreground op.
func (fs *FS) onRevoke(lock uint64, to lockservice.Mode) {
	op := fs.tr.Start(fs.jr, "lockservice", "revoke")
	defer op.Done()
	switch lock & (0xff << 56) {
	case lockTagInode:
		fs.flushOwner(op, lock)
		if to == lockservice.None {
			fs.keepHint(int64(lock &^ (0xff << 56)))
			fs.meta.InvalidateByOwner(lock)
			fs.data.InvalidateByOwner(lock)
		}
	case lockTagBitmap:
		fs.flushOwner(op, lock)
		fs.dropSegment(lock)
		if to == lockservice.None {
			fs.meta.InvalidateByOwner(lock)
		}
	case LockBarrier:
		// Backup barrier: clean everything before letting the backup
		// program take the exclusive lock (§8).
		_ = fs.sync(op)
	}
}

// flushOwner is the flush a lock waits for before it changes hands: "a
// write lock that covers dirty data can change owners only after the
// dirty data has been written to Petal" (§4). The lock's metadata (the
// log forced through its newest record, then the sectors in place) and
// its data are two jobs for the flush workers — user data is not logged,
// so no write-ahead order binds it. The clerk has drained the lock's
// users, so nothing is written behind a pass and clean is reachable. The
// rule is absolute — a transient Petal failure must delay the handoff,
// not drop the data — so this goes round until nothing the lock covers
// is dirty or the lease is definitively lost (in which case the lock
// service runs recovery from our log instead). fsync is the same two
// jobs less the sectors, once (see File.Sync).
func (fs *FS) flushOwner(op *obs.Span, lock uint64) {
	for {
		meta, data := fs.meta.DirtyByOwner(lock), fs.data.DirtyByOwner(lock)
		if len(meta) == 0 && len(data) == 0 {
			return
		}
		err := fs.flushWorkers(2, func(i int) error {
			if i == 0 {
				return fs.flushRuns(op, fs.pc, fs.meta, meta)
			}
			return fs.flushData(op, fs.pc, data)
		})
		if err == nil {
			continue // clean now, unless a joined flight left something
		}
		if fs.clerk.LeaseLost() {
			return // poison path owns the data-loss accounting
		}
		fs.w.Clock.Sleep(500 * time.Millisecond)
	}
}

// dropSegment forgets an owned allocation segment when its lock is
// revoked (another server is stealing it). The scan hints covering
// the segment go with it: once the lock is gone the thief may free
// bits below our resume point or refill a segment we marked full, so
// the hints are only trustworthy while the lock is held.
func (fs *FS) dropSegment(lock uint64) {
	seg := int64(lock &^ (0xff << 56))
	fs.mu.Lock()
	for c, segs := range fs.owned {
		for i, s := range segs {
			if s == seg {
				fs.owned[c] = append(segs[:i], segs[i+1:]...)
				break
			}
		}
	}
	fs.dropSegHintsLocked(seg)
	fs.mu.Unlock()
}

// dropSegHintsLocked invalidates every allocator hint touching seg.
// Caller holds fs.mu.
func (fs *FS) dropSegHintsLocked(seg int64) {
	for c, s := range fs.stickySeg {
		if s == seg {
			delete(fs.stickySeg, c)
		}
	}
	for k := range fs.segResume {
		if k.seg == seg {
			delete(fs.segResume, k)
		}
	}
	for k := range fs.segFull {
		if k.seg == seg {
			delete(fs.segFull, k)
		}
	}
}

// onRecover is the recovery demon (§4): replay the dead server's log
// against the shared disk. The lock service has granted us exclusive
// ownership of the dead server's log and locks.
func (fs *FS) onRecover(dead string, deadSlot int) error {
	fs.replaying.Lock()
	defer fs.replaying.Unlock()
	fs.jr.Record("fs", "recover", "start", 0, int64(deadSlot), dead)
	region := &logRegion{fs: fs, base: fs.lay.LogSlotBase(deadSlot)}
	recs, err := wal.Scan(region, fs.lay.LogSize)
	if err != nil {
		fs.jr.Record("fs", "recover", "fail", 0, int64(deadSlot), "scan: "+err.Error())
		return err
	}
	fs.jr.Record("fs", "recover", "scanned", 0, int64(len(recs)), dead)
	applied, err := wal.Replay(recs, &directDev{fs: fs})
	if err != nil {
		fs.jr.Record("fs", "recover", "fail", 0, int64(deadSlot), "replay: "+err.Error())
		return err
	}
	fs.jr.Record("fs", "recover", "replayed", 0, int64(applied), dead)
	fs.m.recoveries.Inc()
	return nil
}

// onLeaseLost implements §6: discard all cached data; if any of it
// was dirty, poison the file system so every subsequent request
// fails until unmount.
func (fs *FS) onLeaseLost() {
	dirty := fs.meta.HasDirty() || fs.data.HasDirty()
	if dirty {
		fs.jr.Record("fs", "poison", "lease-lost", 0, 1, "dirty cache discarded; server shut off")
	} else {
		fs.jr.Record("fs", "lease", "lost-clean", 0, 0, "caches invalidated")
	}
	fs.meta.InvalidateAll()
	fs.data.InvalidateAll()
	fs.mu.Lock()
	if dirty {
		fs.poisoned = true
	}
	fs.owned = make(map[allocClass][]int64)
	fs.stickySeg = make(map[allocClass]int64)
	fs.segResume = make(map[segKey]int64)
	fs.segFull = make(map[segKey]bool)
	clear(fs.hints)
	fs.mu.Unlock()
}
