package lockservice

import (
	"sync"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/paxos"
	"frangipani/internal/reuse"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// sendOp is one queued outbound lock operation, drained by the sender
// demon into per-shard-server batches.
type sendOp struct {
	release bool
	lock    uint64
	mode    Mode  // release: the new mode; acquire: recomputed at flush
	epoch   int64 // acquire: tenancy epoch at enqueue time
}

// Clerk is the lock service module linked into each Frangipani
// server ("a clerk module linked into each Frangipani server", §6).
// Locks are sticky: Unlock releases the caller's use but the clerk
// keeps the grant until some other clerk needs a conflicting lock,
// at which point the revoke callback (cache flush / invalidate) runs
// and the lock is downgraded or released.
//
// Outbound acquires and releases are not transmitted inline: they are
// enqueued on a FIFO and drained by a sender demon that groups
// consecutive operations per owning shard server into AcquireBatch /
// ReleaseBatch messages, so a burst of lock traffic costs one network
// message per server rather than one per lock.
type Clerk struct {
	machine string
	table   string
	w       *sim.World
	cfg     Config
	ep      *rpc.Endpoint
	servers []string
	addrs   map[string]string // Addr of each server, made once

	mu        sync.Mutex
	cond      *sync.Cond
	locks     map[uint64]*clkLock
	epochGen  int64         // source of per-lock request epochs
	shardVer  map[int]int64 // fencing floor per lock shard
	leaseID   uint64
	logSlot   int
	lease     lease
	closed    bool
	leaseLost bool
	cancels   []func()

	// Outbound op queue, drained by the sender demon, and the drain's
	// per-server batches; both keep their room from drain to drain.
	outq     []sendOp
	batches  []outBatch
	sendCond *sync.Cond
	// revokers run the revokes (see revoke); stop ends them.
	revokers reuse.Workers[revokeJob]
	// follow keeps the shard map: Open adopts the one its reply
	// carries, and a nack, a newer epoch in an ack, a sync or a retry
	// refreshes it.
	follow *paxos.Follower[GState]

	// onRevoke runs before a lock is downgraded (to Shared) or
	// released (to None): flush dirty data, then invalidate on full
	// release. It must not call back into the clerk for this lock.
	onRevoke func(lock uint64, to Mode)
	// onRecover replays a dead server's log, the blocks its session's
	// lease wrote in its slot; see paper §4.
	onRecover func(dead string, deadSlot int, deadLease uint64) error
	// onLeaseLost poisons the file system (paper §6: "Frangipani
	// turns on an internal flag that causes all subsequent requests
	// from user programs to return an error").
	onLeaseLost func()

	// recovering holds, per dead clerk whose log this clerk is
	// replaying, the newest RecoverReq seen meanwhile: one replay runs
	// per dead clerk however often the coordinator asks, and its
	// RecoveryDone answers the newest ask.
	recovering map[string]RecoverReq

	// Observability; set once at construction.
	now        obs.NowFunc
	acqLat     *obs.Histogram
	revLat     *obs.Histogram
	relLat     *obs.Histogram
	batchC     *obs.Counter // outbound batch messages
	batchOpsC  *obs.Counter // lock ops carried in those batches
	renewStdC  *obs.Counter // standalone RenewMsgs cast
	renewPigC  *obs.Counter // renewals piggybacked on batches
	renewElidC *obs.Counter // per-server standalone renewals a tick left out
	// jr is the flight recorder (nil-safe). Its acquire ok|fail and
	// revoke recv records are also what the hot-lock ranking reads.
	jr *obs.Journal
}

// NewClerk creates a clerk for one machine and lock table on the
// world's simulated network. Callbacks must be installed before Open.
func NewClerk(w *sim.World, machine, table string, servers []string, cfg Config) *Clerk {
	return NewClerkWithCarrier(w, machine, table, servers, cfg, rpc.SimCarrier{Net: w.Net})
}

// NewClerkWithCarrier creates a clerk on an arbitrary message carrier.
func NewClerkWithCarrier(w *sim.World, machine, table string, servers []string, cfg Config, carrier rpc.Carrier) *Clerk {
	c := &Clerk{
		machine:    machine,
		table:      table,
		w:          w,
		cfg:        cfg.resolved(),
		servers:    append([]string(nil), servers...),
		addrs:      make(map[string]string, len(servers)),
		locks:      make(map[uint64]*clkLock),
		shardVer:   make(map[int]int64),
		recovering: make(map[string]RecoverReq),
	}
	c.lease = newLease(c.servers, c.cfg.LeaseDuration)
	for _, s := range servers {
		c.addrs[s] = Addr(s)
	}
	c.cond = sync.NewCond(&c.mu)
	c.sendCond = sync.NewCond(&c.mu)
	if reg := w.Obs; reg != nil {
		c.now = reg.Now
		c.acqLat = reg.Histogram("lockservice.acquire.latency#" + machine)
		c.revLat = reg.Histogram("lockservice.revoke.latency#" + machine)
		c.relLat = reg.Histogram("lockservice.release.latency#" + machine)
		c.batchC = reg.Counter("lockservice.clerk.batches#" + machine)
		c.batchOpsC = reg.Counter("lockservice.clerk.batched_ops#" + machine)
		c.renewStdC = reg.Counter("lockservice.renew.standalone#" + machine)
		c.renewPigC = reg.Counter("lockservice.renew.piggyback#" + machine)
		c.renewElidC = reg.Counter("lockservice.renew.elided#" + machine)
		c.jr = reg.Journal(machine)
	}
	c.ep = rpc.NewEndpoint(ClerkAddr(machine), carrier, w.Clock, c.handle)
	c.follow = paxos.NewFollower[GState](c.ep, c.servers, Addr, w.Obs, "lockservice.refresh", machine)
	return c
}

// addr is lock server srv's Addr, looked up rather than built for every
// message.
func (c *Clerk) addr(srv string) string {
	if a, ok := c.addrs[srv]; ok {
		return a
	}
	return Addr(srv)
}

// SetCallbacks installs the FS integration hooks.
func (c *Clerk) SetCallbacks(onRevoke func(lock uint64, to Mode),
	onRecover func(dead string, deadSlot int) error, onLeaseLost func()) {
	c.mu.Lock()
	c.onRevoke = onRevoke
	c.onRecover = nil
	if onRecover != nil {
		c.onRecover = func(dead string, deadSlot int, _ uint64) error { return onRecover(dead, deadSlot) }
	}
	c.onLeaseLost = onLeaseLost
	c.mu.Unlock()
}

// SetRecover installs the recovery hook in place of SetCallbacks'
// onRecover, for a log that needs to know whose it is: deadLease is
// the dead session's lease ID, which a log stamped on its blocks (§7: a
// server "determines which portion of the log space to use from the
// lease identifier").
func (c *Clerk) SetRecover(onRecover func(dead string, deadSlot int, deadLease uint64) error) {
	c.mu.Lock()
	c.onRecover = onRecover
	c.mu.Unlock()
}

// Open contacts the lock service, opens the table, and starts lease
// renewal. While the session of an earlier incarnation of this machine
// is still open it returns ErrPriorSession: the caller retries once the
// lock service has had that session's log recovered.
func (c *Clerk) Open() error {
	var resp OpenResp
	ok := false
	req := OpenReq{Clerk: c.machine, Table: c.table, Incarnation: int64(c.w.Clock.Now())}
	for _, s := range c.servers {
		r, err := c.ep.Call(c.addr(s), req, 180*time.Second)
		if err != nil {
			continue
		}
		or, _ := r.(OpenResp)
		if or.Err == ErrPriorSession.Error() {
			return ErrPriorSession
		}
		if or.OK {
			resp = or
			ok = true
			break
		}
	}
	if !ok {
		return ErrNoServer
	}
	now := c.w.Clock.Now()
	c.mu.Lock()
	c.leaseID = resp.LeaseID
	c.logSlot = resp.LogSlot
	for _, s := range c.servers {
		c.lease.ack(s, true, now) // the open session is every server's first ack
	}
	c.mu.Unlock()
	c.follow.Adopt(resp.State, resp.State.Version)
	go c.sender()
	c.cancels = append(c.cancels,
		c.w.Clock.Tick(renewTick(c.cfg.LeaseDuration), c.renew),
		c.w.Clock.Tick(c.cfg.RevokeRetry, c.retryRequests),
		c.w.Clock.Tick(c.cfg.IdleDiscard/4, c.discardIdle),
	)
	return nil
}

// discardIdle releases sticky grants unused for longer than
// IdleDiscard and forgets released entries (§6: bounding lock memory).
func (c *Clerk) discardIdle() {
	now := c.w.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.leaseLost {
		return
	}
	for id, l := range c.locks {
		c.apply(id, l.idle(now, c.cfg.IdleDiscard))
	}
}

// LogSlot returns the private log slot assigned at Open; Frangipani
// derives its log location from it (§7).
func (c *Clerk) LogSlot() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logSlot
}

// LeaseID returns the lease ID of the session Open opened. The lock
// service hands them out in increasing order and never hands one out
// twice, so a later session's ID is the larger.
func (c *Clerk) LeaseID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseID
}

// Close cleanly closes the table (unmount).
func (c *Clerk) Close() {
	if !c.stop() {
		return
	}
	for _, s := range c.servers {
		_ = c.ep.Cast(c.addr(s), CloseReq{Clerk: c.machine, Table: c.table})
	}
	c.ep.Close()
}

// Abandon simulates a crash of the clerk's machine: tickers stop and
// the endpoint goes silent WITHOUT closing the session, so the lock
// service sees the lease expire and initiates recovery.
func (c *Clerk) Abandon() {
	if !c.stop() {
		return
	}
	c.jr.Record("lockservice", "session", "abandon", 0, 0, "crash: lease left to expire")
	c.ep.Close()
}

// stop marks the clerk closed, wakes its waiters and stops its tickers;
// it reports false if the clerk was closed already.
func (c *Clerk) stop() bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.closed = true
	c.mu.Unlock()
	c.revokers.Close()
	c.cond.Broadcast()
	c.sendCond.Broadcast()
	for _, cancel := range c.cancels {
		cancel()
	}
	return true
}

// Follower returns the clerk's copy of the lock service's global state.
func (c *Clerk) Follower() *paxos.Follower[GState] { return c.follow }

// noteNewEpochLocked reacts to a server advertising a shard-map epoch
// newer than ours (piggybacked on RenewAck): refetch the map. Called
// with c.mu held.
func (c *Clerk) noteNewEpochLocked(epoch int64) {
	if st, ver := c.follow.View(); ver >= 0 && epoch > st.Epoch && !c.closed && !c.leaseLost {
		go c.follow.Refresh(ver)
	}
}

// shardOfLocked maps a lock to its shard under the current map (or
// the default shard count if the map is not yet known — before the
// first refresh completes no grants are in flight anyway).
func (c *Clerk) shardOfLocked(lock uint64) int {
	if st, ver := c.follow.View(); ver >= 0 {
		return st.ShardOf(lock)
	}
	return ShardOf(lock, c.cfg.Shards)
}

// Lock acquires the lock in the given mode, blocking until granted.
// It returns ErrLeaseLost if the clerk's lease expires meanwhile. On
// whose behalf the caller waits is the caller's to record: the clerk
// keeps the per-lock and per-machine figures only.
func (c *Clerk) Lock(lock uint64, mode Mode) error {
	return c.LockAll([]uint64{lock}, mode)
}

// LockAll acquires every lock of locks in mode, as Lock does each, but
// asks for all it has to in one hold of the clerk's mutex, so that one
// drain of the queue sends them: a batch for each lock server, not a
// round trip for each lock. It returns once it holds them all, or with
// an error holding none. It takes at most 64 locks, in no order, so the
// caller must know that nobody holding one of them waits for a lock the
// caller holds — as a server taking the locks of free inodes under the
// lock of their bitmap segment does.
func (c *Clerk) LockAll(locks []uint64, mode Mode) error {
	if len(locks) > 64 {
		panic("lockservice: LockAll takes at most 64 locks")
	}
	if c.now == nil {
		_, err := c.lockWait(locks, mode)
		return err
	}
	start := c.now()
	blocked, err := c.lockWait(locks, mode)
	wait := c.now() - start
	// Journal only acquires that blocked or failed: uncontended sticky
	// hits are the overwhelming common case and would churn the ring.
	// These records, with the whole acquire latency as the wait, are
	// the hot-lock ranking's input (obs.Registry.HotLocks).
	for _, lock := range locks {
		c.acqLat.Record(wait)
		if err != nil {
			c.jr.Record("lockservice", "acquire", "fail", lock, wait, err.Error())
		} else if blocked {
			c.jr.Record("lockservice", "acquire", "ok", lock, wait, "")
		}
	}
	return err
}

// lockWait is LockAll's wait loop; blocked reports that the caller had
// to wait for a grant instead of finding them all cached.
func (c *Clerk) lockWait(locks []uint64, mode Mode) (blocked bool, err error) {
	all := uint64(1)<<len(locks) - 1
	var in uint64 // bit i: the caller is inside locks[i]
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed || c.leaseLost {
			err = ErrClosed
			if !c.closed {
				err = ErrLeaseLost
			}
			for i, lock := range locks {
				if in&(1<<i) != 0 {
					c.apply(lock, c.lockLocked(lock).unlock())
				}
			}
			return blocked, err
		}
		now := c.w.Clock.Now()
		for i, lock := range locks {
			if in&(1<<i) != 0 {
				continue
			}
			if l := c.lockLocked(lock); l.admit(mode, now, true) {
				in |= 1 << i
			} else {
				c.apply(lock, l.want(mode, now, c.cfg.RevokeRetry))
			}
		}
		if in == all {
			return blocked, nil
		}
		blocked = true
		c.waiting(locks, in, mode, 1)
		c.cond.Wait()
		c.waiting(locks, in, mode, -1)
	}
}

// waiting adds d to the waiters in mode of each lock of locks the
// caller of lockWait is not yet inside (bit i of in clear).
func (c *Clerk) waiting(locks []uint64, in uint64, mode Mode, d int) {
	for i, lock := range locks {
		if in&(1<<i) == 0 {
			c.lockLocked(lock).waiters[mode] += d
		}
	}
}

// TryLock acquires without blocking on the network: it succeeds only
// if the clerk already holds a sufficient sticky grant.
func (c *Clerk) TryLock(lock uint64, mode Mode) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed && !c.leaseLost && c.lockLocked(lock).admit(mode, c.w.Clock.Now(), false)
}

// Unlock releases the caller's use. The grant itself remains cached
// (sticky) until revoked.
func (c *Clerk) Unlock(lock uint64) {
	if c.now != nil {
		start := c.now()
		defer func() { c.relLat.Record(c.now() - start) }()
	}
	c.mu.Lock()
	if l := c.locks[lock]; l != nil {
		c.apply(lock, l.unlock())
	}
	c.mu.Unlock()
}

// InjectStaleShardMap is a fault-injection hook: it deliberately
// corrupts this clerk's view of the shard map — every shard's owner
// is rotated to the next server and the view is marked older than the
// authoritative one — so the clerk's next batches are misrouted until
// a wrong-shard nack forces a refetch. Tests and experiments use it
// to exercise the stale-map retry path deterministically: a real
// reassignment refreshes clerks almost immediately (the new owner's
// sync request triggers a refetch), so racing one only nacks by luck.
func (c *Clerk) InjectStaleShardMap() {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ver := c.follow.View()
	if ver < 0 || len(c.servers) < 2 {
		return
	}
	idx := make(map[string]int, len(c.servers))
	for i, s := range c.servers {
		idx[s] = i
	}
	st = st.Clone()
	for sh, srv := range st.Assignment {
		st.Assignment[sh] = c.servers[(idx[srv]+1)%len(c.servers)]
	}
	st.Version--
	c.follow.Replace(st, st.Version)
}

// Held reports the clerk's current granted mode for a lock.
func (c *Clerk) Held(lock uint64) Mode {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.locks[lock]; l != nil {
		return l.mode
	}
	return None
}

// HeldCount returns the number of sticky grants currently cached.
func (c *Clerk) HeldCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, l := range c.locks {
		if l.mode > None {
			n++
		}
	}
	return n
}

func (c *Clerk) lockLocked(lock uint64) *clkLock {
	l := c.locks[lock]
	if l == nil {
		c.epochGen++
		l = &clkLock{epoch: c.epochGen}
		c.locks[lock] = l
	}
	return l
}

// apply does what a transition of lock's state asked for. Called with
// c.mu held, so requests and releases join the sender's FIFO in the
// order the transitions decided them: queue order is wire order per
// lock, and a release enqueued by a flush always precedes any request
// of the next tenancy (which carries a newer epoch), so the server
// never sees them inverted.
func (c *Clerk) apply(lock uint64, a clerkAct) {
	if a.do == 0 {
		return
	}
	if a.has(actRequest) {
		c.jr.Record("lockservice", "acquire", "wait", lock, int64(a.mode), "")
		c.outq = append(c.outq, sendOp{lock: lock, mode: a.mode, epoch: a.epoch})
		c.sendCond.Signal()
	}
	if a.has(actRelease) {
		c.jr.Record("lockservice", "release", "sent", lock, int64(a.mode), "")
		c.outq = append(c.outq, sendOp{release: true, lock: lock, mode: a.mode})
		c.sendCond.Signal()
	}
	if a.has(actFlush) {
		c.revoke(lock)
	}
	if a.has(actWake) {
		c.cond.Broadcast()
	}
	if a.has(actForget) {
		delete(c.locks, lock)
	}
}

// sender is the clerk's outbound demon: it drains the op queue and
// transmits per-shard-server batches. It exits when the clerk closes.
func (c *Clerk) sender() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.outq) == 0 && !c.closed {
			c.sendCond.Wait()
		}
		if c.closed {
			return
		}
		if _, ver := c.follow.View(); ver < 0 {
			c.mu.Unlock()
			err := c.follow.Refresh(-1)
			c.mu.Lock()
			if err != nil {
				// Routing unknown: drop the drain. Pending wants are
				// re-enqueued by the retry ticker and lost releases are
				// re-asked-for by the server's revoke retry.
				c.outq = c.outq[:0]
				continue
			}
		}
		// The drain sends with c.mu held, so nothing joins the queue
		// until it is done with it.
		c.flushLocked(c.outq)
		c.outq = c.outq[:0]
	}
}

// batchRoom is how many operations a batch message carries in its own
// object; a drain with more for one server grows the list apart.
const batchRoom = 4

// acquireMsg and releaseMsg are batch messages with room for their lists
// beside them, so a batch is one allocation. They are sent by pointer
// (&m.AcquireBatch), and arrive as one on both carriers.
type acquireMsg struct {
	AcquireBatch
	room [batchRoom]BatchReq
}

type releaseMsg struct {
	ReleaseBatch
	room [batchRoom]BatchRel
}

// outBatch is what one drain sends one server.
type outBatch struct {
	srv string
	rel *releaseMsg
	acq *acquireMsg
}

// batchLocked returns the drain's batches for srv, adding them in the
// order their servers first come up.
func (c *Clerk) batchLocked(srv string) *outBatch {
	for i := range c.batches {
		if c.batches[i].srv == srv {
			return &c.batches[i]
		}
	}
	c.batches = append(c.batches, outBatch{srv: srv})
	return &c.batches[len(c.batches)-1]
}

// flushLocked groups a drain of the op queue into per-server batches
// and transmits them with c.mu held: the network assigns its FIFO
// sequence synchronously inside Send, so holding the lock guarantees
// batches reach the wire in state-machine order.
//
// Releases are sent before acquires. Within one drain that inversion
// is safe: a queued acquire older than a queued release of the same
// lock carries a pre-release tenancy epoch and is discarded by the
// revalidation below, so the only surviving same-lock order is
// release-then-reacquire — exactly the order the batches transmit.
func (c *Clerk) flushLocked(ops []sendOp) {
	st, _ := c.follow.View()
	mapEpoch := st.Epoch
	for _, op := range ops {
		b := c.batchLocked(st.ServerFor(op.lock))
		if op.release {
			if b.rel == nil {
				b.rel = &releaseMsg{ReleaseBatch: ReleaseBatch{Clerk: c.machine, Table: c.table, MapEpoch: mapEpoch}}
				b.rel.Rels = b.rel.room[:0]
			}
			b.rel.Rels = append(b.rel.Rels, BatchRel{Lock: op.lock, NewMode: op.mode})
			continue
		}
		// Revalidate acquires at flush time: the want may have been
		// granted, released, or superseded since it was enqueued.
		l := c.locks[op.lock]
		if l == nil || l.epoch != op.epoch || !l.requestable() {
			continue
		}
		if b.acq == nil {
			b.acq = &acquireMsg{AcquireBatch: AcquireBatch{Clerk: c.machine, Table: c.table, MapEpoch: mapEpoch}}
			b.acq.Reqs = b.acq.room[:0]
		}
		b.acq.Reqs = append(b.acq.Reqs, BatchReq{Lock: op.lock, Mode: l.wanted, Epoch: l.epoch})
	}
	now := c.w.Clock.Now()
	for _, b := range c.batches {
		if b.rel == nil && b.acq == nil {
			continue
		}
		// The first batch to srv carries a lease renewal when one is
		// due: busy clerks renew as a side effect of traffic they send
		// anyway, and their ticks send none (O(1)-in-N control chatter).
		var renew uint64
		if !c.leaseLost && c.lease.carry(b.srv, now) {
			renew = c.leaseID
			c.renewPigC.Inc()
		}
		if m := b.rel; m != nil {
			c.batchC.Inc()
			c.batchOpsC.Add(int64(len(m.Rels)))
			m.Renew, renew = renew, 0
			_ = c.ep.Cast(c.addr(b.srv), &m.ReleaseBatch)
		}
		if m := b.acq; m != nil {
			c.batchC.Inc()
			c.batchOpsC.Add(int64(len(m.Reqs)))
			m.Renew = renew
			_ = c.ep.Cast(c.addr(b.srv), &m.AcquireBatch)
		}
	}
	clear(c.batches)
	c.batches = c.batches[:0]
}

// retryRequests retransmits wants that have not been granted and
// refreshes routing state occasionally.
func (c *Clerk) retryRequests() {
	c.mu.Lock()
	if c.closed || c.leaseLost {
		c.mu.Unlock()
		return
	}
	anyPending := false
	for _, l := range c.locks {
		if l.requestable() {
			anyPending = true
			break
		}
	}
	c.mu.Unlock()
	if !anyPending {
		return
	}
	_, ver := c.follow.View()
	_ = c.follow.Refresh(ver) // routing may have changed under us
	c.mu.Lock()
	now := c.w.Clock.Now()
	for id, l := range c.locks {
		if l.requestable() {
			c.apply(id, l.request(now, 0)) // forced through the rate limit
		}
	}
	c.mu.Unlock()
}

// revoke hands lock's flush to a revoke worker, as rpc.Endpoint hands
// calls to its handler workers: the workers are as many as the revokes
// ever in flight at once, and revokes of different locks flush at the
// same time. Called with c.mu held.
func (c *Clerk) revoke(lock uint64) { c.revokers.Go(revokeJob{c, lock}) }

// revokeJob is a revoke, as a revoke worker is handed it.
type revokeJob struct {
	c    *Clerk
	lock uint64
}

// Run runs the revoke.
func (j revokeJob) Run() { j.c.processRevoke(j.lock) }

// processRevoke runs the FS flush callback and then complies with the
// pending revoke.
func (c *Clerk) processRevoke(lock uint64) {
	if c.now != nil {
		start := c.now()
		defer func() { c.revLat.Record(c.now() - start) }()
	}
	c.mu.Lock()
	l := c.locks[lock]
	if l == nil {
		c.mu.Unlock()
		return
	}
	target := l.revokeTo
	cb := c.onRevoke
	c.mu.Unlock()

	if cb != nil {
		cb(lock, target)
	}

	c.mu.Lock()
	c.epochGen++
	c.apply(lock, l.flushed(target, c.epochGen))
	c.mu.Unlock()
}

// handle serves server-to-clerk messages.
func (c *Clerk) handle(from string, body any) any {
	switch m := body.(type) {
	case GrantMsg:
		c.onGrant(m)
	case RevokeMsg:
		c.onRevokeMsg(m)
	case WrongShard:
		c.onWrongShard(m)
	case SyncReq:
		return c.onSync(m)
	case RecoverReq:
		c.onRecoverReq(m)
	case RenewAck:
		// The one place an ack enters the lease, whether it answers a
		// tick's RenewMsg or a batch's Renew.
		c.mu.Lock()
		if m.LeaseID == c.leaseID {
			c.lease.ack(m.Server, m.Valid, c.w.Clock.Now())
		}
		c.noteNewEpochLocked(m.MapEpoch)
		c.mu.Unlock()
	}
	return nil
}

func (c *Clerk) onGrant(m GrantMsg) {
	if m.Table != c.table {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leaseLost || c.closed {
		c.apply(m.Lock, clerkAct{do: actRelease, mode: None})
		return
	}
	if m.Ver != 0 && m.Ver < c.shardVer[c.shardOfLocked(m.Lock)] {
		// Grant from a deposed lock server that has not yet applied
		// the reassignment; the new server's sync is authoritative.
		return
	}
	a := c.lockLocked(m.Lock).grant(m.Mode, m.Epoch)
	if a.has(actTaken) {
		c.jr.Record("lockservice", "grant", "recv", m.Lock, int64(m.Mode), "")
	}
	c.apply(m.Lock, a)
}

func (c *Clerk) onRevokeMsg(m RevokeMsg) {
	if m.Table != c.table {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.locks[m.Lock]
	if l == nil {
		l = &clkLock{} // holds nothing: the revoke is answered, not kept
	}
	a := l.revoke(m.NewMode)
	if a.has(actTaken) {
		c.jr.Record("lockservice", "revoke", "recv", m.Lock, int64(m.NewMode), "")
	}
	c.apply(m.Lock, a)
}

// onWrongShard handles a stale-routing nack: refetch the shard map,
// then re-drive every nacked lock against its new owner, so no
// acknowledged release is ever lost to a handoff.
func (c *Clerk) onWrongShard(m WrongShard) {
	if m.Table != c.table || len(m.Locks) == 0 {
		return
	}
	c.jr.Record("lockservice", "shard", "wrongshard", m.Locks[0], int64(len(m.Locks)), "nack from "+m.Server)
	locks := append([]uint64(nil), m.Locks...)
	_, ver := c.follow.View()
	go func() { // handlers run on the delivery lane and must not block
		_ = c.follow.Refresh(ver)
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.closed || c.leaseLost {
			return
		}
		now := c.w.Clock.Now()
		for _, lk := range locks {
			if l := c.locks[lk]; l != nil {
				c.apply(lk, l.redrive(now))
			}
		}
	}()
}

func (c *Clerk) onSync(m SyncReq) any {
	if m.Table != c.table {
		return nil
	}
	shards := make(map[int]bool, len(m.Shards))
	for _, sh := range m.Shards {
		shards[sh] = true
	}
	c.mu.Lock()
	for sh := range shards {
		if m.Ver > c.shardVer[sh] {
			c.shardVer[sh] = m.Ver
		}
	}
	var held []HeldLock
	for id, l := range c.locks {
		if l.mode > None && shards[ShardOf(id, m.NumShards)] {
			held = append(held, HeldLock{Lock: id, Mode: l.mode})
		}
	}
	c.mu.Unlock()
	_, ver := c.follow.View()
	go c.follow.Refresh(ver) // assignment changed; relearn routing
	_ = c.ep.Cast(c.addr(m.Server), SyncResp{Clerk: c.machine, Seq: m.Seq, Locks: held})
	return nil
}

// onRecoverReq replays a dead clerk's log, once however often it is
// asked: the coordinator asks again every few sweeps, and a replay can
// take longer than that. Asks that arrive while the replay runs only
// update the one its RecoveryDone answers; a failed replay forgets the
// dead clerk, so the next ask runs it again.
func (c *Clerk) onRecoverReq(m RecoverReq) {
	if m.Table != c.table {
		return
	}
	c.jr.Record("lockservice", "recovery", "asked", 0, int64(m.DeadSlot), m.Dead)
	c.mu.Lock()
	_, running := c.recovering[m.Dead]
	c.recovering[m.Dead] = m
	cb := c.onRecover
	c.mu.Unlock()
	if running {
		return
	}
	go func() {
		var err error
		if cb != nil {
			err = cb(m.Dead, m.DeadSlot, m.LeaseID)
		}
		c.mu.Lock()
		last := c.recovering[m.Dead]
		delete(c.recovering, m.Dead)
		c.mu.Unlock()
		if err != nil {
			c.jr.Record("lockservice", "recovery", "fail", 0, int64(m.DeadSlot), m.Dead+": "+err.Error())
			return // coordinator will retry or reassign
		}
		c.jr.Record("lockservice", "recovery", "done", 0, int64(m.DeadSlot), m.Dead)
		_ = c.ep.Cast(c.addr(last.Server), RecoveryDone{
			Clerk: c.machine, Table: c.table, Dead: m.Dead, Seq: last.Seq,
		})
	}()
}

// renew is the lease's tick. It casts a RenewMsg to each server the
// lease's schedule picks and loses the lease when the acks say so; the
// acks land in handle, whichever renewal they answer. The lease is valid
// while a majority of lock servers acked within its duration, which keeps
// the clerk's view conservative across partitions.
func (c *Clerk) renew() {
	c.mu.Lock()
	if c.closed || c.leaseLost {
		c.mu.Unlock()
		return
	}
	renew, verdict := c.lease.tick(c.w.Clock.Now())
	id := c.leaseID
	c.mu.Unlock()
	if verdict == leaseDisowned {
		// Expired and recovered while we were stalled: the lease is
		// gone, whatever the ack arithmetic says.
		c.jr.Record("lockservice", "lease", "invalid", 0, 0, "majority disowned session")
	}
	if verdict != leaseHeld {
		c.loseLease()
		return
	}
	c.renewElidC.Add(int64(len(c.servers) - len(renew)))
	c.renewStdC.Add(int64(len(renew)))
	for _, s := range renew {
		_ = c.ep.Cast(c.addr(s), RenewMsg{Clerk: c.machine, LeaseID: id})
	}
	c.jr.Record("lockservice", "lease", "renew", 0, int64(len(renew)), "")
}

// ExpiresAt returns the simulated time (ns) at which the lease
// expires: the majority-rank renewal ack plus the lease duration.
func (c *Clerk) ExpiresAt() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lease.expiresAt()
}

// LeaseValid reports whether the lease will still be valid margin
// from now; Frangipani checks this "before attempting any write to
// Petal" (§6).
func (c *Clerk) LeaseValid(margin sim.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.leaseLost && c.lease.expiresAt() > int64(c.w.Clock.Now())+int64(margin)
}

// loseLease discards all lock and triggers the FS poison callback.
func (c *Clerk) loseLease() {
	c.mu.Lock()
	if c.leaseLost {
		c.mu.Unlock()
		return
	}
	c.leaseLost = true
	held := int64(len(c.locks))
	c.locks = make(map[uint64]*clkLock)
	cb := c.onLeaseLost
	c.mu.Unlock()
	c.jr.Record("lockservice", "lease", "lost", 0, held, "all cached grants discarded")
	c.cond.Broadcast()
	if cb != nil {
		cb()
	}
}

// LeaseLost reports whether the lease has been lost.
func (c *Clerk) LeaseLost() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseLost
}

// MemoryBytes reports the paper's clerk-side lock memory model (232
// bytes per cached lock).
func (c *Clerk) MemoryBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.locks)) * ClerkBytesPerLock
}
