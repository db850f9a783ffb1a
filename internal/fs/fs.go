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
	"frangipani/internal/reuse"
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
	specDirs                     *obs.Counter
	allocSticky, allocResume     *obs.Counter
	allocRescan, allocSkipFull   *obs.Counter
	flushBatches, flushRuns      *obs.Counter
	flushPages, flushAhead       *obs.Counter
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
		ops:           c("ops.count"),
		bytesRead:     c("read.bytes"),
		bytesWritten:  c("write.bytes"),
		retries:       c("retry.count"),
		recoveries:    c("recovery.count"),
		raHits:        c("readahead.hits"),
		raWasted:      c("readahead.wasted"),
		raJoins:       c("readahead.joins"),
		fills:         c("read.fills"),
		specFills:     c("read.spec.fills"),
		specDropped:   c("read.spec.dropped"),
		specDirs:      c("read.spec.dirs"),
		allocSticky:   c("alloc.sticky.hits"),
		allocResume:   c("alloc.resume.hits"),
		allocRescan:   c("alloc.rescan"),
		allocSkipFull: c("alloc.skip.full"),
		flushBatches:  c("flush.batches"),
		flushRuns:     c("flush.runs"),
		flushPages:    c("flush.pages"),
		flushAhead:    c("flush.ahead"),
		flushPeak:     obs.NewGauge(),
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
	overlapped *petal.Client // pc's view for read-ahead (petal.Client.Overlapped)
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

	// txns are the transactions no operation is using, for withTxn to
	// take again; flushes and writeBacks are the scratches of finished
	// write-backs (poolFlush, flushRuns).
	txns       reuse.List[*txn]
	flushes    reuse.List[*poolFlush]
	writeBacks reuse.List[*writeBack]

	// gate holds the claim of every block some fetch is bringing in from
	// Petal or some flight is carrying to it, of both pools.
	gate gate

	flushInFlight int64 // current write-back dispatches (guarded by mu)
	// workers run the write-back jobs and batches (flushWorkers);
	// Unmount and Crash end them.
	workers petal.Workers

	// atimes holds in-memory approximate access times (§2.1), folded
	// into inodes when they are next logged. Guarded by mu.
	atimes map[int64]int64

	// hints holds, for files and directories whose inode lock a revoke
	// took away, the block map the inode had then (keepHint), in a table
	// direct-mapped by inode number. Guarded by mu.
	hints []hint

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

// Mkfs initializes a Frangipani file system on an empty Petal virtual
// disk — one just created: the params sector, the root directory inode,
// and its allocation bit, in one WriteV. The bitmap sector is built, not
// read: on an empty disk the root's bit is the only one set. It runs
// without locks; the disk must not be mounted anywhere.
func Mkfs(pc *petal.Client, vd petal.VDiskID, lay Layout) error {
	if err := lay.Validate(); err != nil {
		return err
	}
	isec := make([]byte, SectorSize)
	encodeInode(Inode{Type: TypeDir, Nlink: 2}, isec)
	wal.SetBlockVersion(isec, 1)
	addr, byteOff, mask := lay.bitLoc(lay.bitFor(classInode, RootInum))
	bsec := make([]byte, SectorSize)
	bsec[byteOff] |= mask
	wal.SetBlockVersion(bsec, 1)
	return pc.WriteV(vd, []petal.Extent{
		{Off: lay.ParamsBase, Data: encodeParams(params{Magic: paramsMagic, Version: 1, Root: RootInum})},
		{Off: lay.InodeAddr(RootInum), Data: isec},
		{Off: addr, Data: bsec},
	})
}

// Mount attaches a new Frangipani server to a shared virtual disk.
// machine is this server's identity; lockServers lists the lock
// service members. As §7 has it, the server obtains a lease, takes its
// log slot and tenancy from it, and goes into operation: the params
// sector is read while the lease is sought, and nothing is written. A
// machine that crashed and mounts again under its name is refused with
// lockservice.ErrPriorSession until its old session's log is recovered.
func Mount(w *sim.World, machine string, pc *petal.Client, vd petal.VDiskID,
	lockServers []string, lay Layout, cfg Config) (*FS, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	formatted := make(chan error, 1)
	go func() { formatted <- readParams(pc, vd, lay) }()
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
		hints:      make([]hint, hintSlots),
		gate:       gate{claims: make(map[int64]*claim)},
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
	// Eviction writes its dirty victims back as every flusher does, for no
	// operation: through the flight gate, log first.
	fs.meta.SetFlusher(func(es []*cache.Entry) error { return fs.flush(nil, fs.meta, es, false) })
	fs.data.SetFlusher(func(es []*cache.Entry) error { return fs.flush(nil, fs.data, es, false) })

	carrier := cfg.Carrier
	if carrier == nil {
		carrier = rpc.SimCarrier{Net: w.Net}
	}
	fs.clerk = lockservice.NewClerkWithCarrier(w, machine, string(vd), lockServers, cfg.Lock, carrier)
	fs.clerk.SetCallbacks(fs.onRevoke, nil, fs.onLeaseLost)
	fs.clerk.SetRecover(fs.onRecover)
	opened := fs.clerk.Open()
	formatErr := <-formatted
	if opened != nil {
		fs.clerk.Abandon() // a failed open holds no session to close
		return nil, opened
	}
	if formatErr != nil {
		fs.clerk.Close()
		return nil, formatErr
	}
	fs.logSlot = fs.clerk.LogSlot()
	if fs.logSlot >= lay.LogSlots {
		fs.clerk.Close()
		return nil, fmt.Errorf("fs: out of log slots (%d servers max)", lay.LogSlots)
	}
	// Stamp Petal writes with our lease so guarded Petal servers can
	// reject expired writers (§6 hazard fix).
	pc.SetLeaseInfo(func() int64 { return fs.clerk.ExpiresAt() - int64(cfg.LeaseMargin) })

	// The slot's previous tenant unmounted cleanly or was recovered:
	// what it left is stale, and the lease ID in this log's LSNs
	// outranks it, so the slot needs no clearing.
	fs.log = wal.NewTenancy(&logRegion{fs: fs, base: fs.lay.LogSlotBase(fs.logSlot)}, lay.LogSize, fs.clerk.LeaseID())
	fs.log.SetObs(w.Obs, machine)
	fs.log.SetReclaim(fs.reclaimLog)

	fs.syncCancel = w.Clock.Tick(cfg.SyncEvery, func() { _ = fs.sync(nil) })
	return fs, nil
}

// readParams reads and checks the params sector: what tells Mount the
// disk holds a file system.
func readParams(pc *petal.Client, vd petal.VDiskID, lay Layout) error {
	psec := make([]byte, SectorSize)
	if err := pc.Read(vd, lay.ParamsBase, psec); err != nil {
		return fmt.Errorf("fs: reading params: %w", err)
	}
	_, err := decodeParams(psec)
	return err
}

// Machine returns the server's machine name.
func (fs *FS) Machine() string { return fs.machine }

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
	return fs.lockBatch(op, []uint64{id}, mode)
}

// lockBatch acquires several locks for op in one wait, through the
// clerk's LockAll: one batch of requests for each lock server. The wait
// gets a lockservice.acquire span under op and is charged to op's
// principal.
func (fs *FS) lockBatch(op *obs.Span, ids []uint64, mode lockservice.Mode) error {
	if fs.now == nil {
		return fs.clerk.LockAll(ids, mode)
	}
	sp := op.Child("lockservice", "acquire")
	start := fs.now()
	err := fs.clerk.LockAll(ids, mode)
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
	fs.workers.Close()
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
	fs.workers.Close()
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
// chunk and dispatches with bounded parallelism.
func (fs *FS) petalWriteV(op *obs.Span, exts []petal.Extent) error {
	if err := fs.waitLeaseForWrite(op); err != nil {
		return err
	}
	return fs.pc.For(op).WriteV(fs.vd, exts)
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

// chunkPages is how many data pages a Petal chunk holds.
const chunkPages = petal.ChunkSize / BlockSize

// read returns the cached block of pool at addr, fetching it from Petal
// on a miss, pinned: the caller unpins it once it is done with its bytes.
// The caller holds owner, the covering lock.
func (fs *FS) read(op *obs.Span, pool *cache.Pool, addr int64, owner uint64) (*cache.Entry, error) {
	if e, ok := pool.Lookup(addr); ok {
		return e, nil
	}
	e, _, err := fs.fetch(op, fs.pc, []block{{addr, owner, pool}}, nil)
	return e, err
}

// warm brings into their pools with one fetch every block of blocks that
// is neither cached nor on its way, and waits for those on their way, so
// a scan that collects its addresses up front costs one Petal round trip,
// not one per block. The caller holds the blocks' locks.
func (fs *FS) warm(op *obs.Span, blocks []block) error {
	if len(blocks) == 0 {
		return nil
	}
	e, _, err := fs.fetch(op, fs.pc, blocks, nil)
	blocks[0].pool.Unpin(e)
	return err
}

// fetch returns the block at blocks[0], pinned, for a caller that holds
// the locks of blocks and needs the block now. Whichever blocks are
// neither cached nor on their way come in with it in one Petal read,
// whatever their pools; blocks another fetch (a prefetch, or another operation's miss)
// has in flight are waited for, not read a second time. A data fetch
// counts itself in fs.read.fills and its waits in fs.readahead.joins: a
// stream that is far enough ahead never joins. own reports that this call
// itself went to Petal for blocks[0]; each time it does, op's principal
// is charged the miss. It reads through via: fs.pc, or fs.overlapped for
// a read beside its stream's prefetches. keep, if not nil, judges the
// blocks after the first by the first as read with them (see fill); when
// this call would read some of them but not blocks[0], there is nothing to
// judge them by, and it fetches blocks[0] alone.
func (fs *FS) fetch(op *obs.Span, via *petal.Client, blocks []block, keep func(first []byte) bool) (e *cache.Entry, own bool, err error) {
	data := blocks[0].pool == fs.data
	// Stack scratch for a 64 KB request and an inode sector; longer ones
	// spill to the heap.
	var mineRoom [1 + chunkPages]block
	var theirsRoom [4]*claim
	for {
		c, mine, theirs := fs.gate.claimFetch(blocks, mineRoom[:0], theirsRoom[:0])
		if keep != nil && c != nil && mine[0] != blocks[0] {
			fs.gate.release(c, mine, nil)
			fs.gate.leave(theirs)
			blocks, keep = blocks[:1], nil
			continue
		}
		if c != nil {
			if data {
				fs.m.fills.Inc()
			}
			fs.acct.CacheMiss(op.Ctx().Principal, 1)
			sp := op.Child("cache", "fill")
			e, err = fs.fill(via.For(sp), c, mine, true, keep)
			sp.Done()
		}
		if len(theirs) > 0 && data {
			fs.m.raJoins.Inc()
		}
		for _, other := range theirs {
			_ = other.wait()
		}
		if err != nil {
			return nil, false, err
		}
		if c != nil && mine[0] == blocks[0] {
			return e, true, nil
		}
		if e != nil { // mine[0], which the caller did not ask for first
			mine[0].pool.Unpin(e)
			e = nil
		}
		if e, ok := blocks[0].pool.Peek(blocks[0].addr); ok {
			return e, false, nil
		}
		// The fetch we joined failed, or was discarded at its validity
		// gate, or the flight we waited for carried a block invalidated
		// since: fetch the block ourselves.
	}
}

// fill reads the blocks mine, claimed by c, through pc with one
// scatter-gather Petal read (one extent per run of contiguous blocks of a
// pool, which the Petal driver splits by chunk and fans out over servers
// and disks), enters each into its pool under its owner, and releases c.
// It returns the entry of mine[0], pinned, and unpins the others. keep,
// if not nil, is shown the bytes of mine[0] as cached before the others
// are entered, and says whether they are: a speculative fill
// (loadForRead) judges its pages by the inode sector read with them.
//
// A foreground caller holds the owners (locked) and passes the view of
// its operation. A prefetch has neither: it runs for no operation,
// through fs.overlapped, and without the lock of its file's pages, like
// the paper's UFS-derived read-ahead, and only touches it here, briefly,
// as a validity gate — if the lock was revoked meanwhile the data "must
// be discarded, and the work to read it turns out to have been wasted"
// (§9.4), so no stale page ever enters the cache. A prefetch is one
// chunk: fs.readahead.hits counts the chunks that landed,
// fs.readahead.wasted the bytes of those that did not.
func (fs *FS) fill(pc petal.Client, c *claim, mine []block, locked bool, keep func(first []byte) bool) (first *cache.Entry, err error) {
	defer func() { fs.gate.release(c, mine, err) }()
	n, pages := 0, 0
	for _, b := range mine {
		n += b.pool.BlockSize()
		if b.pool == fs.data {
			pages++
		}
	}
	// Pooled scratch: Fill copies into the caches' own blocks.
	bufp := bufpool.Get(n)
	defer bufpool.Put(bufp)
	buf := *bufp
	var extRoom [5]petal.ReadExtent // stack scratch: a fill is a run or a few
	if err := pc.ReadV(fs.vd, blockRuns(extRoom[:0], mine, buf)); err != nil {
		return nil, err
	}
	fs.m.bytesRead.Add(int64(pages * BlockSize))
	if !locked {
		owner := mine[0].owner
		if !fs.clerk.TryLock(owner, lockservice.Shared) {
			fs.m.raWasted.Add(int64(len(buf)))
			return nil, nil
		}
		defer fs.clerk.Unlock(owner)
		fs.m.raHits.Inc()
	}
	// A writer may have raced a block in: Fill keeps theirs. The blocks
	// after the first go back to their pool together: they are one pool's
	// (a speculative fill's sector is the first, its pages the rest).
	var room [chunkPages]*cache.Entry
	rest := room[:0]
	for i, b := range mine {
		if i == 1 && keep != nil && !keep(first.Data) {
			break
		}
		bs := b.pool.BlockSize()
		e, _ := b.pool.Fill(b.addr, buf[:bs], b.owner)
		buf = buf[bs:]
		switch {
		case i == 0:
			first = e
		case b.pool == mine[1].pool && len(rest) < len(room):
			rest = append(rest, e)
		default:
			b.pool.Unpin(e)
		}
	}
	if len(rest) > 0 {
		mine[1].pool.Unpin(rest...)
	}
	return first, nil
}

// blockRuns appends to exts one extent per run of blocks of mine that are
// contiguous in one pool, each reading into its share of buf, which holds
// the blocks one after another.
func blockRuns(exts []petal.ReadExtent, mine []block, buf []byte) []petal.ReadExtent {
	for i := 0; i < len(mine); {
		bs := mine[i].pool.BlockSize()
		j := i + 1
		for j < len(mine) && mine[j].pool == mine[i].pool && mine[j].addr == mine[j-1].addr+int64(bs) {
			j++
		}
		n := (j - i) * bs
		exts = append(exts, petal.ReadExtent{Off: mine[i].addr, Dst: buf[:n]})
		buf = buf[n:]
		i = j
	}
	return exts
}

// ensureLogFlushed enforces write-ahead order: before a block dirtied
// by the record at seq may be written to Petal, the log must be
// durable through seq (a revoke's write-back asks less, see flushRuns).
// Concurrent callers group-commit inside the WAL, so redundant calls
// are cheap.
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

// ---- transactions ----

// lockExtraMode is the mode for mid-operation extra locks.
const lockExtraMode = lockservice.Exclusive

// txn accumulates one operation's metadata changes; commit turns
// them into a single log record (so the whole operation replays
// atomically per block) and marks the touched cache entries dirty.
// withTxn takes one from the server's free list per mutating operation,
// and unpins the sectors it holds (held: those the operation may change)
// once it has committed or given up, before it puts it back. It carries room of its own for what an operation touches —
// txnSectors sectors, txnRanges byte ranges of them, txnSegs locks taken
// on the way, txnHeld sectors held — so that filling it allocates
// nothing; only a wider operation (a rename across directories over an
// existing file, a truncate freeing many blocks) spills to the heap.
type txn struct {
	fs      *FS
	op      *obs.Span      // the operation the transaction belongs to
	sectors []*cache.Entry // touched, in the order first touched; a handful, searched linearly
	ranges  []logRange     // what to log of them
	segs    []uint64       // bitmap segment locks acquired by the allocator
	held    []*cache.Entry // pinned metadata sectors the operation may change
	// pageOwner is the inode lock that owns data pages created by
	// this transaction (set by operations that allocate blocks).
	pageOwner uint64

	sectorRoom [txnSectors]*cache.Entry
	rangeRoom  [txnRanges]logRange
	segRoom    [txnSegs]uint64
	heldRoom   [txnHeld]*cache.Entry
}

const (
	txnSectors = 6
	txnRanges  = 16
	txnSegs    = 4
	txnHeld    = 12
)

// reset empties t onto its own room.
func (t *txn) reset() {
	clear(t.sectorRoom[:])
	clear(t.heldRoom[:])
	t.fs, t.op, t.pageOwner = nil, nil, 0
	t.sectors, t.ranges, t.segs, t.held = t.sectorRoom[:0], t.rangeRoom[:0], t.segRoom[:0], t.heldRoom[:0]
}

// hold takes over the caller's pin of e, a metadata sector the
// transaction may change.
func (t *txn) hold(e *cache.Entry) { t.held = append(t.held, e) }

// read is fs.read of a metadata sector the transaction may change, held.
func (t *txn) read(addr int64, owner uint64) (*cache.Entry, error) {
	e, err := t.fs.read(t.op, t.fs.meta, addr, owner)
	if err == nil {
		t.hold(e)
	}
	return e, err
}

// logRange is a modified byte range [lo, hi) of sectors[sector].
type logRange struct{ sector, lo, hi int }

// logGap is the most unchanged bytes between two changed runs that is
// cheaper to log with them as one range than to open a second update.
const logGap = 8

// update writes newBytes at off into the entry, which the transaction
// holds, recording the changed runs (diffed, so records stay small — the paper's are
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
	// joint: the record changes more than one sector, so replay must find
	// it whole before any of them goes home (see flushRuns).
	joint := len(t.sectors) > 1
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
		if joint {
			t.fs.meta.MarkDirtyJoint(e, seq)
		} else {
			t.fs.meta.MarkDirty(e, seq)
		}
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

// releaseSegs unlocks the bitmap segments (and extra locks) the
// transaction acquired mid-flight (sticky: the grants stay cached at
// the clerk).
func (t *txn) releaseSegs() {
	for _, id := range t.segs {
		t.fs.clerk.Unlock(id)
	}
	t.segs = t.segs[:0]
}

// ---- sync demon and write-back ----

// Sync is the update demon body: force the log, write back all dirty
// blocks, then let the log reclaim the records ("the permanent
// locations are updated periodically (roughly every 30 seconds) by
// the update demon", §4). Metadata and data write-back are two jobs
// for the flush workers, so with FlushParallelism > 1 they proceed
// concurrently; each batch still honors the per-entry log-before-data
// rule. The demon runs it for no operation.
func (fs *FS) Sync() error {
	return fs.traced("sync", fs.sync)
}

// sync is Sync for op: it forces the log and writes every dirty block
// back.
func (fs *FS) sync(op *obs.Span) error {
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

	p := fs.newPoolFlush(op)
	p.meta, p.data = fs.meta.AllDirty(), fs.data.AllDirty()
	err := p.run()
	p.free()
	if err == nil {
		fs.log.Release(target)
	}
	return err
}

// poolFlush is a write-back of the two pools as two jobs for the flush
// workers (sync, flushOwner, File.fsync): user data is not logged, so no
// write-ahead order binds it to the sectors. It holds the dirty lists,
// which flushOwner and fsync fill from call to call, the call's arguments
// for the workers and what they share. It comes from the server's
// flushes and goes back when the jobs are done; job is the bound flushJob
// the workers run, made once per poolFlush rather than once per call.
type poolFlush struct {
	fs         *FS
	op         *obs.Span
	meta, data []*cache.Entry
	// logOnly forces the log through the sectors' newest records and
	// leaves them dirty (fsync), instead of writing them back. ahead
	// writes them back ahead of the records that changed them alone (a
	// revoke's flushOwner, see flushRuns).
	logOnly, ahead bool
	job            func(i int) error
	fan            petal.FanOut
}

// newPoolFlush takes a two-job write-back for op from the server's
// flushes.
func (fs *FS) newPoolFlush(op *obs.Span) *poolFlush {
	p, ok := fs.flushes.Take()
	if !ok {
		p = &poolFlush{fs: fs}
		p.job = p.flushJob
	}
	p.op = op
	return p
}

// run runs the two jobs on the flush workers.
func (p *poolFlush) run() error { return p.fs.flushWorkers(&p.fan, 2, p.job) }

// flushJob is job i: the sectors (0) or the pages (1).
func (p *poolFlush) flushJob(i int) error {
	fs := p.fs
	switch {
	case i == 1:
		return fs.flush(p.op, fs.data, p.data, false)
	case p.logOnly:
		seq, _ := fs.meta.MaxSeq(p.meta)
		return fs.ensureLogFlushed(p.op, seq)
	}
	return fs.flush(p.op, fs.meta, p.meta, p.ahead)
}

// unpin lets go of the dirty lists, which their pools pinned, and empties
// them.
func (p *poolFlush) unpin() {
	p.fs.meta.Unpin(p.meta...)
	p.fs.data.Unpin(p.data...)
	clear(p.meta)
	clear(p.data)
	p.meta, p.data = p.meta[:0], p.data[:0]
}

// free lets go of the lists, forgets what the write-back pointed at and
// gives it back to its server.
func (p *poolFlush) free() {
	p.unpin()
	p.op, p.logOnly, p.ahead = nil, false, false
	p.fs.flushes.Put(p)
}

// flush writes back what the blocks es of pool, which the caller holds
// pinned (and flush may reorder), held when it was called,
// or something newer: it sends the dirty ones that no flight is carrying
// (snapshots taken now) and joins the flights that carry the rest, so a
// block goes to Petal once however many flushers want it there. A joined
// flight may have taken its snapshot before the call; whichever of its
// blocks is still dirty once it has landed was written after that
// snapshot, and a second pass sends it — or joins a flight that claimed
// it after the first one landed, and so after the call began. Two passes
// are therefore all a caller is owed, however fast the blocks are being
// written again; what is written behind a pass is its writer's next
// flush. It returns the first error of its own writes and of the flights
// it joined; failed blocks stay dirty. ahead is flushRuns'.
func (fs *FS) flush(op *obs.Span, pool *cache.Pool, es []*cache.Entry, ahead bool) error {
	var theirsRoom [8]*claim // stack scratch: a pass joins at most the write-behind flights out, FlushParallelism (8) by default
	for pass := 0; pass < 2 && len(es) > 0; pass++ {
		fl, theirs, joined, _ := fs.gate.claimFlight(pool, es, theirsRoom[:0], 0)
		var err error
		if fl != nil {
			err = fs.flushRuns(op, pool, fl.entries, ahead)
			fs.gate.release(fl, nil, err)
		}
		for _, other := range theirs {
			if werr := other.wait(); err == nil {
				err = werr
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
// started it, so it runs for no operation. Petal sends it in two halves,
// as it sends any write: the primary forwards the first while the second
// is still arriving.
func (fs *FS) flushBehind(es []*cache.Entry) bool {
	var room [4]*claim // stack scratch: flights that carry some of es already, which need no second
	fl, theirs, _, ok := fs.gate.claimFlight(fs.data, es, room[:0], max(fs.cfg.FlushParallelism, 1))
	fs.gate.leave(theirs)
	if fl != nil {
		fl.fs = fs
		fs.workers.Go(fl)
	}
	return ok
}

// Run is the background job of a claim that outlives the call that made
// it, on a worker of the server's: a write-behind flight's write-back
// (flushBehind) or a prefetch's fill (File.prefetch). Both run for no
// operation. The claim is not the job's to read once it is released.
func (c *claim) Run() {
	fs := c.fs
	if c.flight {
		fs.gate.release(c, nil, fs.flushRuns(nil, fs.data, c.entries, false))
		return
	}
	ra := c.ra
	first, _ := fs.fill(*fs.overlapped, c, c.fetched, false, nil)
	fs.data.Unpin(first)
	ra.landed()
}

// awaitFlights waits until no flight carries a page of in's blocks: a
// block may go back to the allocator, or be decommitted, only when
// nothing is still on its way to it.
func (fs *FS) awaitFlights(in Inode) {
	fs.gate.awaitFlights(func(addr int64) bool {
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
	})
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
// arguments for the workers and what they share. It comes from the
// server's writeBacks and goes back when the call returns, so a
// write-back allocates none of it: WriteV copies what it needs of the extents, and each batch's buffer
// is recycled, or not, by writeBatch. write is the bound writeBatch the
// workers run, made once per writeBack rather than once per call.
type writeBack struct {
	fs      *FS
	op      *obs.Span
	pool    *cache.Pool
	runs    []flushRun
	gens    []int64
	batches []flushBatch
	exts    []petal.Extent
	write   func(i int) error
	fan     petal.FanOut
}

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

// free forgets what the write-back pointed at and gives it back to its
// server.
func (w *writeBack) free() {
	clear(w.runs)
	clear(w.batches)
	clear(w.exts)
	w.op, w.pool = nil, nil
	w.fs.writeBacks.Put(w)
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

// flushRuns is the body of a flight (flush, flushBehind): it writes back
// the flight's claimed entries of one pool, log-first: coalesced runs
// are packed into scatter-gather batches and dispatched through the
// flush workers, so one cache-sync round trip carries many runs and,
// with FlushParallelism > 1, transfers overlap. It sorts dirty.
//
// Log-first means through the newest record covering any of the blocks,
// unless ahead (a revoke's write-back): then it is only through the
// newest record that changed one of them together with another block
// (Entry.Joint). A sector write is atomic, so a record that changed one
// sector alone lands whole with it, and replay skips it once the sector
// carries its version; a record that changed several must be in the log
// before any of them lands, or a crash between their writes leaves half
// of it. An overwrite's mtime, a size change inside allocated blocks: a
// file whose un-durable records are all like that goes home in one
// round, its sector beside its pages, and its lock changes hands.
func (fs *FS) flushRuns(op *obs.Span, pool *cache.Pool, dirty []*cache.Entry, ahead bool) error {
	if len(dirty) == 0 {
		return nil
	}
	seq, joint := pool.MaxSeq(dirty)
	force := seq
	if ahead {
		force = joint
	}
	if err := fs.ensureLogFlushed(op, force); err != nil {
		return err
	}
	if force < seq { // fs.flush.ahead counts the sectors that now go ahead
		fs.mu.Lock()
		flushed := fs.flushed
		fs.mu.Unlock()
		fs.m.flushAhead.Add(int64(pool.Newer(dirty, flushed)))
	}
	w, ok := fs.writeBacks.Take()
	if !ok {
		w = &writeBack{fs: fs}
		w.write = func(i int) error { return w.fs.writeBatch(w.op, w.pool, &w.batches[i]) }
	}
	defer w.free()
	w.op, w.pool = op, pool
	w.plan(dirty)
	for i := range w.batches {
		w.batches[i].snapshot(pool)
	}
	return fs.flushWorkers(&w.fan, len(w.batches), w.write)
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
func (fs *FS) writeBatch(op *obs.Span, pool *cache.Pool, b *flushBatch) error {
	fs.noteFlushInFlight(1)
	start := fs.w.Clock.Now()
	err := fs.petalWriteV(op, b.exts)
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
// FlushParallelism of them in flight on fs's workers, the caller's
// goroutine taking part; fo, from the caller's scratch, is what they
// share. All n run regardless of failures; the error of the lowest index
// that failed is returned.
func (fs *FS) flushWorkers(fo *petal.FanOut, n int, fn func(int) error) error {
	return fs.workers.Run(fo, fs.cfg.FlushParallelism, n, fn)
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
// the log over, the space is everybody's: it runs for no operation. A
// record whose sector a revoke sent home ahead of it (flushRuns) may
// still be only in memory, and no dirty sector leads the flush to it:
// the log is forced through seq before it is released, so the tail never
// passes a record that was never written.
func (fs *FS) reclaimLog(through int64) {
	dirty := fs.meta.DirtyThrough(through)
	err := fs.flush(nil, fs.meta, dirty, false)
	fs.meta.Unpin(dirty...)
	if err == nil {
		err = fs.ensureLogFlushed(nil, through)
	}
	if err == nil {
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
// log forced through its newest record that changed more than one
// sector, then the sectors in place, see flushRuns) and its data are two
// jobs for the flush workers — user data is not logged, so no
// write-ahead order binds it. The clerk has drained the lock's
// users, so nothing is written behind a pass and clean is reachable. The
// rule is absolute — a transient Petal failure must delay the handoff,
// not drop the data — so this goes round until nothing the lock covers
// is dirty or the lease is definitively lost (in which case the lock
// service runs recovery from our log instead). fsync is the same two
// jobs less the sectors, once (see File.Sync).
func (fs *FS) flushOwner(op *obs.Span, lock uint64) {
	p := fs.newPoolFlush(op)
	defer p.free()
	p.ahead = true
	for {
		p.unpin()
		p.meta, p.data = fs.meta.DirtyByOwner(p.meta, lock), fs.data.DirtyByOwner(p.data, lock)
		if len(p.meta) == 0 && len(p.data) == 0 {
			return
		}
		err := p.run()
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
// ownership of the dead server's log and locks. The log is the blocks
// of the dead session's tenancy (deadLease): what an earlier tenant of
// the slot left is not the dead server's to replay.
func (fs *FS) onRecover(dead string, deadSlot int, deadLease uint64) error {
	fs.replaying.Lock()
	defer fs.replaying.Unlock()
	fs.jr.Record("fs", "recover", "start", 0, int64(deadSlot), dead)
	region := &logRegion{fs: fs, base: fs.lay.LogSlotBase(deadSlot)}
	recs, err := wal.ScanTenancy(region, fs.lay.LogSize, deadLease)
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
