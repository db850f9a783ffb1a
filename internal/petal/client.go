package petal

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"frangipani/internal/bufpool"
	"frangipani/internal/obs"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// Client is the Petal device driver: it "hides the distributed nature
// of Petal, making Petal look like an ordinary local disk to higher
// layers" (§2.1). It routes chunk operations to replicas, fails over
// when a server is down, and refreshes its view of the global state
// when routing goes stale.
//
// A Client is a view of one driver: For returns another view of the
// same driver whose calls are made on behalf of an operation.
type Client struct {
	*driver
	// op is the operation this view's calls are made for: they open
	// their spans under it, are charged to its principal, and stamp
	// their requests with its context. Nil for the driver's own view.
	op *obs.Span
	// ahead marks a view whose reads are read-ahead: nobody waits for
	// them, so none of them is lone (readPieces).
	ahead bool
}

// For returns a view of the client whose calls run on behalf of op.
func (c *Client) For(op *obs.Span) *Client {
	if op == c.op {
		return c
	}
	return &Client{driver: c.driver, op: op, ahead: c.ahead}
}

// Ahead returns a view of the client for read-ahead: its reads count
// as in flight, as any read does, but are never lone themselves.
func (c *Client) Ahead() *Client {
	return &Client{driver: c.driver, op: c.op, ahead: true}
}

// driver is the state every view of one Client shares.
type driver struct {
	name    string
	ep      *rpc.Endpoint
	clock   *sim.Clock
	servers []string
	addrs   map[string]string // DataAddr of each server, made once

	mu      sync.Mutex
	state   GlobalState
	stateOK bool
	// refreshWait single-flights state refreshes: concurrent callers
	// wait on the in-flight probe instead of stampeding every server.
	refreshWait chan struct{}
	// refreshRR rotates the single-probe target so repeated refreshes
	// sample different servers (a lagging server cannot pin us to a
	// stale view forever).
	refreshRR atomic.Uint64

	// leaseInfo, when set, stamps writes with the holder's lease
	// expiration so guarded Petal servers can reject writes from
	// expired leases (§6's hazard fix).
	leaseInfo func() (expireAt int64)

	// opDeadline bounds one data call including retries.
	opDeadline sim.Duration
	// parallelism bounds one data call's concurrent RPCs.
	parallelism int

	// balanceReads spreads first-choice read routing across both alive
	// replicas (Petal serves reads from either copy, §4 of the Petal
	// paper). Benchmarks switch it off to measure the primary-only
	// baseline. 0 = off, 1 = on.
	balanceReads atomic.Int32
	// rr breaks least-outstanding ties round-robin so equally loaded
	// replicas alternate instead of sticking to the primary.
	rr atomic.Uint64
	// randIntn supplies deterministic jitter for retry backoff.
	randIntn func(int) int

	// Data-path statistics (benchmarks judge batching by extents per
	// RPC, and read balancing by the primary/backup split).
	writeVRPCs    *obs.Counter // WriteVReq calls issued
	writeVExtents *obs.Counter // extents carried by WriteVReq calls
	readVRPCs     *obs.Counter // ReadVReq calls issued
	readVExtents  *obs.Counter // extents carried by ReadVReq calls
	readPrimary   *obs.Counter // balanced read bytes the primary served
	readBackup    *obs.Counter // balanced read bytes the backup served
	balancePct    *obs.Gauge   // percent of balanced read bytes the backup served
	readLone      *obs.Counter // lone reads, each replica's half cut in two (readPieces)

	// reads counts this client's read calls in flight: a read that finds
	// no other is lone.
	reads atomic.Int32

	// Control-plane refresh statistics: at big N the O(N) full-state
	// sweep was itself a scaling cost, so the incremental path's hit
	// rates are first-class observables.
	refreshRPCs    *obs.Counter // StateReq calls issued
	refreshSkipped *obs.Counter // refreshes short-circuited (version already advanced / coalesced)
	refreshFanout  *obs.Counter // probe failures that forced a bounded fan-out
	refreshUnch    *obs.Counter // probes answered Unchanged (no state shipped)

	// infl is the load signal read routing balances on: per server, the
	// bytes of this client's reads that have been routed to it and not
	// yet answered. A piece is charged the moment it picks its first
	// choice, not when its RPC leaves, so pieces routed in the same
	// instant (the extents of one ReadV, eight prefetches started
	// together) see each other; the bytes move to the next preference
	// when a piece fails over and are given back when the batch that
	// carries it returns, answered or not. Bytes, not RPCs, because a
	// server's arm and link are busy for as long as the bytes take.
	infl map[string]*obs.Gauge
	// routeMu makes a read piece's choice and its charge one step.
	routeMu sync.Mutex

	// Observability; set once at construction.
	now    obs.NowFunc
	opLats map[string]*obs.Histogram // read/readv/write/writev latency
	acct   *obs.AccountTable         // per-principal RPC attribution
	jr     *obs.Journal              // flight recorder (nil-safe)
}

// ClientStats counts data-path RPC traffic.
type ClientStats struct {
	// WriteVRPCs is the number of WriteVReq calls issued (including
	// retries and failovers).
	WriteVRPCs int64
	// WriteVExtents is the total extents carried by those calls.
	WriteVExtents int64
	// ReadVRPCs is the number of ReadVReq calls issued (including
	// retries and failovers).
	ReadVRPCs int64
	// ReadVExtents is the total extents carried by those calls.
	ReadVExtents int64
	// ReadPrimary/ReadBackup are the bytes of balanced reads (both
	// replicas alive, balancing on) that the chunk's primary and its
	// backup served. A piece is counted once, when it is served, however
	// often it was routed.
	ReadPrimary int64
	ReadBackup  int64
}

// Stats snapshots the client's data-path counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		WriteVRPCs:    c.writeVRPCs.Value(),
		WriteVExtents: c.writeVExtents.Value(),
		ReadVRPCs:     c.readVRPCs.Value(),
		ReadVExtents:  c.readVExtents.Value(),
		ReadPrimary:   c.readPrimary.Value(),
		ReadBackup:    c.readBackup.Value(),
	}
}

// ClientAddr returns the network name of a machine's Petal driver.
func ClientAddr(machine string) string { return machine + ".petalc" }

// NewClient creates a Petal driver on the named machine. servers is
// the Petal server list.
func NewClient(w *sim.World, machine string, servers []string) *Client {
	return NewClientWithCarrier(w, machine, servers, rpc.SimCarrier{Net: w.Net})
}

// NewClientWithCarrier creates a Petal driver on an explicit message
// carrier (TCP for daemon deployments, sim for tests).
func NewClientWithCarrier(w *sim.World, machine string, servers []string, carrier rpc.Carrier) *Client {
	c := &Client{driver: &driver{
		name:           machine,
		clock:          w.Clock,
		servers:        append([]string(nil), servers...),
		addrs:          dataAddrs(servers),
		opDeadline:     30 * time.Second,
		parallelism:    8,
		randIntn:       w.RandIntn,
		writeVRPCs:     obs.NewCounter(),
		writeVExtents:  obs.NewCounter(),
		readVRPCs:      obs.NewCounter(),
		readVExtents:   obs.NewCounter(),
		readPrimary:    obs.NewCounter(),
		readBackup:     obs.NewCounter(),
		balancePct:     obs.NewGauge(),
		readLone:       obs.NewCounter(),
		refreshRPCs:    obs.NewCounter(),
		refreshSkipped: obs.NewCounter(),
		refreshFanout:  obs.NewCounter(),
		refreshUnch:    obs.NewCounter(),
		infl:           make(map[string]*obs.Gauge, len(servers)),
	}}
	c.balanceReads.Store(1)
	if reg := w.Obs; reg != nil {
		c.writeVRPCs = reg.Counter("petal.writev.rpcs#" + machine)
		c.writeVExtents = reg.Counter("petal.writev.extents#" + machine)
		c.readVRPCs = reg.Counter("petal.readv.rpcs#" + machine)
		c.readVExtents = reg.Counter("petal.readv.extents#" + machine)
		c.readPrimary = reg.Counter("petal.read.primary#" + machine)
		c.readBackup = reg.Counter("petal.read.backup#" + machine)
		c.balancePct = reg.Gauge("petal.read.balance.pct#" + machine)
		c.readLone = reg.Counter("petal.read.lone#" + machine)
		c.refreshRPCs = reg.Counter("petal.refresh.rpcs#" + machine)
		c.refreshSkipped = reg.Counter("petal.refresh.skipped#" + machine)
		c.refreshFanout = reg.Counter("petal.refresh.fanout#" + machine)
		c.refreshUnch = reg.Counter("petal.refresh.unchanged#" + machine)
		for _, s := range servers {
			c.infl[s] = reg.Gauge("petal.client.inflight#" + machine + "." + s)
		}
		c.now = reg.Now
		c.acct = reg.Accounts()
		c.jr = reg.Journal(machine)
		c.opLats = map[string]*obs.Histogram{
			"read":   reg.Histogram("petal.read.latency#" + machine),
			"readv":  reg.Histogram("petal.readv.latency#" + machine),
			"write":  reg.Histogram("petal.write.latency#" + machine),
			"writev": reg.Histogram("petal.writev.latency#" + machine),
		}
	} else {
		for _, s := range servers {
			c.infl[s] = obs.NewGauge()
		}
	}
	c.ep = rpc.NewEndpoint(ClientAddr(machine), carrier, w.Clock, nil)
	return c
}

// instr wraps one client operation in a latency histogram and — when
// the view is bound to a traced operation — a child span, so the
// operation appears in cross-layer trace trees; fn gets that span's
// context to stamp on the requests it sends, which carries the trace to
// the Petal servers.
func (c *Client) instr(op string, fn func(ctx obs.Ctx) error) error {
	if c.now == nil {
		return fn(obs.Ctx{})
	}
	start := c.now()
	sp := c.op.Child("petal", op)
	err := fn(sp.Ctx())
	sp.Done()
	c.opLats[op].Record(c.now() - start)
	return err
}

// SetLeaseInfo installs the callback used to stamp writes with the
// writer's lease expiry. Pass nil to disable stamping.
func (c *Client) SetLeaseInfo(f func() (expireAt int64)) {
	c.mu.Lock()
	c.leaseInfo = f
	c.mu.Unlock()
}

// Close releases the client's endpoint.
func (c *Client) Close() { c.ep.Close() }

// refreshSince refreshes the global-state view, version-aware and
// incremental. usedVersion is the version the caller routed with when
// it hit trouble (-1 for "just refresh"):
//
//   - If the cached view has already advanced past usedVersion —
//     another caller refreshed first — skip the network entirely.
//   - Concurrent refreshes coalesce onto one in-flight probe.
//   - The probe itself asks ONE server (rotating round-robin) with
//     HaveVersion, so the common answer is a tiny Unchanged reply;
//     only a failed or unusable probe falls back to a bounded
//     parallel fan-out over the remaining servers.
//
// The old implementation swept every server sequentially on every
// refresh — an O(N) wall-clock and message cost per failover that
// dominated control traffic at big N.
func (c *Client) refreshSince(usedVersion int64) error {
	c.mu.Lock()
	for {
		if c.stateOK && c.state.Version > usedVersion {
			c.mu.Unlock()
			c.refreshSkipped.Add(1)
			return nil
		}
		ch := c.refreshWait
		if ch == nil {
			break
		}
		// A refresh is in flight: wait for it, then re-judge. The
		// waiters coalesce rather than stampeding the servers.
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
		if c.stateOK {
			c.mu.Unlock()
			c.refreshSkipped.Add(1)
			return nil
		}
		// The in-flight refresh failed and we never had a view; fall
		// through to run our own probe (refreshWait is nil again, or
		// someone else started one and we wait again).
	}
	ch := make(chan struct{})
	c.refreshWait = ch
	have := int64(-1)
	if c.stateOK {
		have = c.state.Version
	}
	c.mu.Unlock()

	err := c.doRefresh(have)

	c.mu.Lock()
	c.refreshWait = nil
	c.mu.Unlock()
	close(ch)
	return err
}

// doRefresh runs one refresh: a single version-aware probe, then a
// bounded fan-out only if the probe fails.
func (c *Client) doRefresh(have int64) error {
	n := len(c.servers)
	if n == 0 {
		return ErrUnavailable
	}
	probe := c.servers[int(c.refreshRR.Add(1)-1)%n]
	c.refreshRPCs.Add(1)
	resp, err := c.ep.Call(DataAddr(probe), StateReq{HaveVersion: have}, dataTimeout)
	if err == nil {
		if sr, ok := resp.(StateResp); ok && sr.OK {
			if sr.Unchanged {
				// Server is no newer than us; nothing to adopt. Retry
				// loops that still fail will rotate to other servers.
				c.refreshUnch.Add(1)
				return nil
			}
			c.adoptState(sr.State)
			return nil
		}
	}
	// Probe failed: bounded parallel fan-out over the remaining
	// servers, adopting the best view any of them returns. Servers
	// apply Paxos decisions asynchronously, so keeping the highest
	// version guards against a lagging straggler.
	c.refreshFanout.Add(1)
	rest := make([]string, 0, n-1)
	for _, s := range c.servers {
		if s != probe {
			rest = append(rest, s)
		}
	}
	if len(rest) == 0 {
		return ErrUnavailable
	}
	var rmu sync.Mutex
	got, gotState := false, false
	var best GlobalState
	_ = BoundedPar(4, len(rest), func(i int) error {
		s := rest[i]
		c.refreshRPCs.Add(1)
		resp, err := c.ep.Call(DataAddr(s), StateReq{HaveVersion: have}, dataTimeout)
		if err != nil {
			return nil
		}
		sr, ok := resp.(StateResp)
		if !ok || !sr.OK {
			return nil
		}
		rmu.Lock()
		got = true // a server current with us still counts as an answer
		if !sr.Unchanged && (!gotState || sr.State.Version > best.Version) {
			best = sr.State
			gotState = true
		}
		rmu.Unlock()
		return nil
	})
	if !got {
		return ErrUnavailable
	}
	if gotState {
		c.adoptState(best)
	}
	return nil
}

// adoptState installs a fetched view unless the cached one is newer.
func (c *Client) adoptState(st GlobalState) {
	c.mu.Lock()
	if !c.stateOK || st.Version >= c.state.Version {
		c.state = st
		c.stateOK = true
	}
	c.mu.Unlock()
}

func (c *Client) getState() (GlobalState, error) {
	c.mu.Lock()
	ok := c.stateOK
	st := c.state
	c.mu.Unlock()
	if ok {
		return st, nil
	}
	if err := c.refreshSince(-1); err != nil {
		return GlobalState{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state, nil
}

// targetList holds replica routing candidates without heap
// allocation: a chunk has at most two replicas, each of which can
// appear once alive-filtered and once unconditionally.
type targetList struct {
	srv [4]string
	n   int
	// primary names the chunk's primary when the order is a balanced
	// read's choice between two live replicas: the bytes such a piece
	// is served count towards the balance. Empty otherwise.
	primary string
}

func (t *targetList) add(s string, alive map[string]bool, mustBeAlive bool) {
	if s == "" {
		return
	}
	if mustBeAlive && !alive[s] {
		return
	}
	for i := 0; i < t.n; i++ {
		if t.srv[i] == s {
			return
		}
	}
	t.srv[t.n] = s
	t.n++
}

// list returns the candidates in preference order.
func (t *targetList) list() []string { return t.srv[:t.n] }

// targets fills tl with the replica servers for a chunk in write and
// failover preference order: alive primary, then alive backup, then
// both regardless (the state may be stale). The caller supplies the
// targetList so the hot path stays allocation-free.
func (c *Client) targets(st *GlobalState, v VDiskID, chunk int64, tl *targetList) {
	p1, p2 := st.replicas(v, chunk)
	tl.n, tl.primary = 0, ""
	tl.add(p1, st.Alive, true)
	tl.add(p2, st.Alive, true)
	tl.add(p1, st.Alive, false)
	tl.add(p2, st.Alive, false)
}

// SetReadBalance toggles read load balancing across replicas. On (the
// default), first-choice read routing spreads over both alive copies;
// off, reads always prefer the primary — the pre-optimization
// behaviour, kept as a benchmark baseline.
func (c *Client) SetReadBalance(on bool) {
	var v int32
	if on {
		v = 1
	}
	c.balanceReads.Store(v)
}

// balanced reports whether reads of a chunk are spread over its two
// replicas — balancing is on and the view has two different servers,
// both alive — and names them.
func (c *Client) balanced(st *GlobalState, v VDiskID, chunk int64) (p1, p2 string, ok bool) {
	p1, p2 = st.replicas(v, chunk)
	ok = c.balanceReads.Load() != 0 && p1 != "" && p2 != "" && p1 != p2 && st.Alive[p1] && st.Alive[p2]
	return p1, p2, ok
}

// readTargets fills tl with replica candidates for a read. When the
// chunk is balanced, the first choice is the replica with fewer bytes
// of this client's reads outstanding (infl; Petal serves reads from
// either copy) and ties alternate round-robin. The losing replica
// stays second, so per-extent failover still reaches every copy, and
// writes keep the primary-first order from targets. It only chooses:
// readOp.route charges the choice, under routeMu, so the next piece
// routed — the other half of the same chunk first of all — sees it.
func (c *Client) readTargets(st *GlobalState, v VDiskID, chunk int64, tl *targetList) {
	p1, p2, ok := c.balanced(st, v, chunk)
	if !ok {
		c.targets(st, v, chunk, tl)
		return
	}
	first, second := p1, p2
	o1, o2 := c.infl[p1].Value(), c.infl[p2].Value()
	if o2 < o1 || (o1 == o2 && c.rr.Add(1)%2 == 1) {
		first, second = p2, p1
	}
	tl.n, tl.primary = 0, p1
	tl.add(first, st.Alive, false)
	tl.add(second, st.Alive, false)
}

// Retry backoff for chunk operations: exponential from retryBase,
// capped at retryCap, with jitter in [d/2, d) so clients hammering a
// recovering server decorrelate. The fixed 100 ms pause this replaces
// both overloaded servers during short outages (every client retried
// in lockstep) and wasted most of the window when routing recovered
// quickly.
const (
	retryBase = 10 * time.Millisecond
	retryCap  = 640 * time.Millisecond
)

// backoffDelay computes the pause before retry number attempt
// (0-based): exponential growth capped at retryCap, jittered into
// [d/2, d) when a randomness source is supplied.
func backoffDelay(attempt int, randIntn func(int) int) sim.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryCap; i++ {
		d *= 2
	}
	if d > retryCap {
		d = retryCap
	}
	if randIntn != nil {
		d = d/2 + sim.Duration(randIntn(int(d/2)))
	}
	return d
}

// retryPause sleeps before retry number attempt, never past deadline.
func (c *Client) retryPause(attempt int, deadline sim.Time) {
	d := backoffDelay(attempt, c.randIntn)
	left := sim.Duration(deadline - c.clock.Now())
	if left <= 0 {
		return
	}
	if d > left {
		d = left
	}
	c.jr.Record("petal", "io", "backoff", uint64(attempt), int64(d), "")
	c.clock.Sleep(d)
}

// start sends one data-path RPC; wait collects its reply. Every one
// (including retries and failovers) is charged to the principal whose
// operation issued it.
func (c *Client) start(who, srv string, req any) (rpc.Pending, error) {
	c.acct.RPC(who, 1)
	return c.ep.Go(addrOf(c.addrs, srv), req)
}

// wait collects the reply to a call start made, err being start's.
func wait(p rpc.Pending, err error, timeout sim.Duration) (any, error) {
	if err != nil {
		return nil, err
	}
	return p.Wait(timeout)
}

// BoundedPar runs f(0..n-1) with at most limit in flight and returns the
// error of the lowest index that failed. Every index runs regardless of
// failures. The caller's goroutine takes part: it runs the last index,
// and all of them, in order, when there is one or the limit is one. It
// is counted in the limit, which costs a semaphore only when there are
// more indices than it allows.
func BoundedPar(limit, n int, f func(int) error) error {
	if limit <= 1 || n <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := f(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	p := &fanOut{f: f, failed: n}
	if n > limit {
		p.slots = make(chan struct{}, limit)
	}
	for i := 0; i < n; i++ {
		if p.slots != nil {
			p.slots <- struct{}{}
		}
		if i == n-1 {
			p.run(i)
			break
		}
		p.wg.Add(1)
		go p.spawned(i)
	}
	p.wg.Wait()
	return p.err
}

// fanOut is one BoundedPar call: what its goroutines share.
type fanOut struct {
	f      func(int) error
	slots  chan struct{} // one taken per index in flight; nil when all may run at once
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error // of index failed, the lowest that has failed
	failed int
}

func (p *fanOut) run(i int) {
	if err := p.f(i); err != nil {
		p.mu.Lock()
		if i < p.failed {
			p.failed, p.err = i, err
		}
		p.mu.Unlock()
	}
	if p.slots != nil {
		<-p.slots
	}
}

func (p *fanOut) spawned(i int) {
	defer p.wg.Done()
	p.run(i)
}

// piece is one chunk-local span of a data call bound to its share of
// the caller's buffer: the destination of a read, the source of a
// write.
type piece struct {
	chunk int64
	off   int
	buf   []byte
	tl    targetList // replica preference under the current routing view
	// tail marks the second part of one replica's share of a lone read:
	// routed wherever the piece before it goes, and sent in a request of
	// its own right behind that piece's.
	tail bool
}

// splitAlign is where a read piece may be cut: the file system's block,
// so no block is ever fetched in two parts.
const splitAlign = 4096

// appendPieces splits the I/O of buf at byte offset off at chunk
// boundaries. A read passes cut, which says into how many pieces — one,
// two or four — the view it is about to be routed under cuts a span of
// half a chunk or more (nil for a write: one). The cuts fall on
// splitAlign boundaries. Halves go to different replicas: routing
// charges the first before it looks at the second, so two arms and two
// links move half the bytes each, while halves that do pick the same
// server still leave in one request (batchByTarget). Quarters are a lone
// read's halves cut in two: the second and fourth are tails.
func appendPieces(dst []piece, off int64, buf []byte, cut func(chunk int64) int) []piece {
	for len(buf) > 0 {
		chunk, in := off/ChunkSize, int(off%ChunkSize)
		n := min(ChunkSize-in, len(buf))
		k := 1
		if n >= ChunkSize/2 && cut != nil {
			k = cut(chunk)
		}
		for i, at := 1, 0; i <= k; i++ {
			end := n
			if i < k {
				end = (in+n*i/k+splitAlign-1)&^(splitAlign-1) - in
			}
			dst = append(dst, piece{chunk: chunk, off: in + at, buf: buf[at:end], tail: k == 4 && i%2 == 0})
			at = end
		}
		off += int64(n)
		buf = buf[n:]
	}
	return dst
}

// Per-request caps: bound one RPC's simulated transfer time (network
// ~17 MB/s, disks ~6 MB/s) well under its timeout and keep message
// sizes sane.
const (
	batchMaxBytes   = 1 << 20
	batchMaxExtents = 256
)

// callTimeout is how long one data RPC may take before the client
// fails over: dataTimeout per chunk's worth of bytes it carries,
// at most three of them.
func callTimeout(bytes int) sim.Duration {
	chunks := (bytes + ChunkSize - 1) / ChunkSize
	return dataTimeout * sim.Duration(min(max(chunks, 1), 3))
}

// batch is the pieces one RPC carries to one server, and the request
// that carries them.
type batch struct {
	srv   string
	ps    []piece
	n     int // pieces, counted before they are laid out in ps
	tails int // of them, tail pieces: laid out last
	bytes int
	req   any
	// tail is the request for the tail pieces, sent right behind req; nil
	// when the batch is sent as one request.
	tail any
}

// xfer is the scratch of one data call: its pieces, each round's batches
// and their requests' extent lists, and what the round's concurrent
// batches share (mu guards next, parked, lastErr and timedOut; the rest
// they only read). A call takes one from xfers and gives it back when
// every RPC it made was answered; a request that was not may still be
// queued at the carrier with its extent list, so its xfer is left to the
// collector. send is the bound sendBatch the fan-out runs, made once per
// xfer rather than once per round.
type xfer struct {
	c   *Client
	ctx obs.Ctx
	v   VDiskID
	op  dataOp
	wop writeOp // a write's op, which op points at: boxed by value it would be allocated
	st  GlobalState

	ps      []piece // the call's pieces
	sorted  []piece // a round's pieces, batch by batch, the unbatched last
	slot    []int   // a round's batch of each piece, -1 for none
	batches []batch
	rexts   []ReadVExtent
	wexts   []WriteVExtent

	mu       sync.Mutex
	next     []piece // unserved at this rank: offered to the next preference
	parked   []piece // wait for a refreshed view
	lastErr  error
	timedOut bool

	send func(i int) error
}

var xfers = sync.Pool{New: func() any {
	x := new(xfer)
	x.send = x.sendBatch
	return x
}}

// newXfer takes a scratch for a call on v made for ctx: a read, or a
// write stamped with the caller's lease (read once per call).
func (c *Client) newXfer(ctx obs.Ctx, v VDiskID, write bool) *xfer {
	x := xfers.Get().(*xfer)
	x.c, x.ctx, x.v = c, ctx, v
	if !write {
		x.op = readOp{c}
		return x
	}
	c.mu.Lock()
	li := c.leaseInfo
	c.mu.Unlock()
	x.wop = writeOp{c: c}
	if li != nil {
		x.wop.expireAt = li()
	}
	x.op = &x.wop
	return x
}

// release gives x back to xfers, pointing at nothing, unless one of its
// calls went unanswered.
func (x *xfer) release() {
	if x.timedOut {
		return
	}
	for _, ps := range [...][]piece{x.ps, x.sorted, x.next, x.parked} {
		clear(ps[:cap(ps)])
	}
	clear(x.batches[:cap(x.batches)])
	clear(x.wexts[:cap(x.wexts)])
	x.ps, x.sorted, x.next, x.parked = x.ps[:0], x.sorted[:0], x.next[:0], x.parked[:0]
	x.batches, x.wexts = x.batches[:0], x.wexts[:0]
	x.c, x.op, x.wop, x.st, x.ctx, x.lastErr = nil, nil, writeOp{}, GlobalState{}, obs.Ctx{}, nil
	xfers.Put(x)
}

// batch groups ps by each piece's rank-th preferred replica into
// size-capped batches, in first-appearance order, and returns the
// pieces with no rank-th candidate. It lays every piece out in x.sorted,
// batch by batch with the unbatched last, so the storage ps came from is
// free once it returns.
func (x *xfer) batch(ps []piece, rank int) (none []piece) {
	x.batches = x.batches[:0]
	x.slot = slices.Grow(x.slot[:0], len(ps))[:len(ps)]
	for i, p := range ps {
		x.slot[i] = -1
		if rank >= p.tl.n {
			continue
		}
		srv := p.tl.srv[rank]
		b := len(x.batches) - 1 // a server's newest batch is the one still taking pieces
		for b >= 0 && x.batches[b].srv != srv {
			b--
		}
		if b < 0 || x.batches[b].bytes+len(p.buf) > batchMaxBytes || x.batches[b].n >= batchMaxExtents {
			b = len(x.batches)
			x.batches = append(x.batches, batch{srv: srv})
		}
		x.batches[b].n++
		if p.tail {
			x.batches[b].tails++
		}
		x.batches[b].bytes += len(p.buf)
		x.slot[i] = b
	}
	x.sorted = slices.Grow(x.sorted[:0], len(ps))[:len(ps)]
	at := 0
	for b := range x.batches {
		n := x.batches[b].n
		x.batches[b].ps = x.sorted[at : at : at+n]
		at += n
	}
	none = x.sorted[at:at]
	for _, tails := range [...]bool{false, true} { // a batch's tails last
		for i, p := range ps {
			if p.tail != tails {
				continue
			}
			if b := x.slot[i]; b >= 0 {
				x.batches[b].ps = append(x.batches[b].ps, p)
			} else {
				none = append(none, p)
			}
		}
	}
	return none
}

// requests builds every batch's request. The extent lists of a round
// whose calls were all answered are reused by the next; once a call has
// gone unanswered its request may still be queued with its list, and
// later rounds make new ones.
func (x *xfer) requests() {
	if x.timedOut {
		x.rexts, x.wexts = nil, nil
	}
	x.rexts, x.wexts = x.rexts[:0], x.wexts[:0]
	for i := range x.batches {
		b := &x.batches[i]
		head, tail := b.split()
		b.req, b.tail = x.op.request(x, head), nil
		if len(tail) > 0 {
			b.tail = x.op.request(x, tail)
		}
	}
}

// split returns the pieces of b's request and those of its tail
// request: a batch of tails alone, or of no tails, is one request.
func (b *batch) split() (head, tail []piece) {
	if b.tails == len(b.ps) {
		return b.ps, nil
	}
	cut := len(b.ps) - b.tails
	return b.ps[:cut], b.ps[cut:]
}

// sendBatch sends batch i and files what it did not get served: one
// index of a round's fan-out. A batch with a tail request sends it right
// behind the first, before either reply is in: the server reads the
// tail off its disk while the first reply is on the wire.
func (x *xfer) sendBatch(i int) error {
	b := &x.batches[i]
	timeout := callTimeout(b.bytes)
	p, err := x.c.start(x.ctx.Principal, b.srv, b.req)
	if b.tail == nil {
		resp, err := wait(p, err, timeout)
		return x.finish(b.srv, b.ps, b.bytes, resp, err)
	}
	head, tail := b.split()
	tp, terr := x.c.start(x.ctx.Principal, b.srv, b.tail)
	tb := 0
	for _, p := range tail {
		tb += len(p.buf)
	}
	resp, err := wait(p, err, timeout)
	first := x.finish(b.srv, head, b.bytes-tb, resp, err)
	resp, err = wait(tp, terr, timeout)
	if err := x.finish(b.srv, tail, tb, resp, err); first == nil {
		first = err
	}
	return first
}

// finish gives back the bytes of the pieces ps that one call to srv
// carried and files what the call — resp, or callErr — did not get
// served.
func (x *xfer) finish(srv string, ps []piece, bytes int, resp any, callErr error) error {
	c, op := x.c, x.op
	op.charge(srv, -bytes)
	unserved, err, verb := ps, callErr, "failover"
	if callErr == nil {
		unserved, err = op.settle(srv, ps, resp)
		verb = "replica-fail"
	}
	if len(unserved) == 0 {
		return err
	}
	c.jr.Record("petal", op.name(), verb, uint64(unserved[0].chunk), int64(len(unserved)), srv)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.timedOut = x.timedOut || callErr != nil
	if err != nil {
		x.lastErr = err
	}
	if staleView(err) {
		x.parked = append(x.parked, unserved...)
	} else {
		x.next = append(x.next, unserved...)
	}
	return nil
}

// route fills the replica preferences of ps under x's view. A tail goes
// where the piece before it, the other part of its replica's share,
// went, and is charged there.
func (x *xfer) route(ps []piece) {
	for i := range ps {
		p := &ps[i]
		if p.tail && i > 0 && ps[i-1].chunk == p.chunk && !ps[i-1].tail {
			p.tl = ps[i-1].tl
			if p.tl.n > 0 {
				x.op.charge(p.tl.srv[0], len(p.buf))
			}
			continue
		}
		x.op.route(&x.st, x.v, p)
	}
}

// dataOp is the direction-specific half of a data call; transfer is
// the shared half.
type dataOp interface {
	// name is the journal subject: "read" or "write".
	name() string
	// route fills a piece's replica preference list; a read charges
	// the piece's bytes to its first choice as it does.
	route(st *GlobalState, v VDiskID, p *piece)
	// charge adds n bytes (negative: gives them back) to the load that
	// read routing sees on srv. Writes carry none.
	charge(srv string, n int)
	// request builds the one message that carries a batch of x's,
	// stamped with the context of the operation it is sent for, its
	// extent list on x's.
	request(x *xfer, ps []piece) any
	// settle consumes srv's reply to a batch and returns the pieces it
	// did not serve and why. An error with nothing left to retry is
	// final: no replica would answer differently.
	settle(srv string, ps []piece, resp any) (unserved []piece, err error)
}

// replyErr turns a reply's error string back into the sentinel it
// names, or into an op-prefixed error.
func replyErr(op, s string) error {
	for _, e := range []error{ErrNoSuchVDisk, ErrStaleEpoch, ErrLeaseExpired} {
		if s == e.Error() {
			return e
		}
	}
	return fmt.Errorf("petal %s: %s", op, s)
}

// staleView reports a rejection the client's directory view or write
// epoch caused: the other replica would say the same, a refresh may
// not.
func staleView(err error) bool {
	return errors.Is(err, ErrNoSuchVDisk) || errors.Is(err, ErrStaleEpoch)
}

// transfer is the one engine behind Read, ReadV, Write and WriteV: it
// moves x's pieces. It loops until the op deadline: take the routing
// view; send the pending pieces to their first-preference replicas in
// size-capped batches with bounded parallelism; keep what was served and
// re-batch what was not (call error, replica-local failure) to the next
// preference, so failover costs one RPC per surviving replica, not one
// per extent. Once every preference is exhausted — or at once for a
// piece the view itself made fail — refresh the view, back off and go
// again. A read piece's bytes are charged (dataOp.charge) to the server
// it waits on and to no other: to its first choice when routed, to a
// later one when the batch for it is made up, and given back when that
// batch's call returns, so a piece that is parked, has no candidate left
// or was never routed holds no charge. x.timedOut reports that some call
// got no answer, so its request may still be queued at the carrier,
// aliasing the pieces' buffers. Every request carries x.ctx, the context
// of the operation the call is made for, and every RPC is charged to its
// principal.
func (c *Client) transfer(x *xfer) (err error) {
	deadline := c.clock.Now() + sim.Time(c.opDeadline)
	ps := x.ps
	for attempt := 0; len(ps) > 0; attempt++ {
		routedVer := int64(-1)
		if x.st, err = c.getState(); err == nil {
			routedVer = x.st.Version
			x.route(ps)
			for rank := 0; len(ps) > 0; rank++ {
				none := x.batch(ps, rank)
				if rank == 0 {
					x.parked = x.parked[:0]
				}
				x.parked = append(x.parked, none...)
				x.next = x.next[:0]
				if rank > 0 { // rank 0 was charged piece by piece as it was routed
					for _, b := range x.batches {
						x.op.charge(b.srv, b.bytes)
					}
				}
				x.requests()
				if final := BoundedPar(c.parallelism, len(x.batches), x.send); final != nil {
					return final
				}
				ps = x.next
			}
			ps = x.parked
		}
		if len(ps) == 0 {
			break
		}
		if c.clock.Now() >= deadline {
			if x.lastErr != nil {
				return fmt.Errorf("%w (last: %v)", ErrUnavailable, x.lastErr)
			}
			return ErrUnavailable
		}
		// Version-aware: if another caller already refreshed past the
		// view we routed with, the retry reuses it without touching
		// the network (petal.refresh.skipped counts these).
		_ = c.refreshSince(routedVer)
		c.retryPause(attempt, deadline)
	}
	return nil
}

// readOp is the read direction: balanced routing, ReadVReq, and
// per-extent results, so a replica-local failure (e.g. a CRC error)
// fails over only the damaged extents — the other replica "can
// ordinarily recover it" (§4) — and served data is kept.
type readOp struct{ c *Client }

func (readOp) name() string { return "read" }

func (o readOp) route(st *GlobalState, v VDiskID, p *piece) {
	o.c.routeMu.Lock()
	o.c.readTargets(st, v, p.chunk, &p.tl)
	if p.tl.n > 0 {
		o.charge(p.tl.srv[0], len(p.buf))
	}
	o.c.routeMu.Unlock()
}

func (o readOp) charge(srv string, n int) { o.c.infl[srv].Add(int64(n)) }

func (o readOp) request(x *xfer, ps []piece) any {
	lo := len(x.rexts)
	for _, p := range ps {
		x.rexts = append(x.rexts, ReadVExtent{Chunk: p.chunk, Off: p.off, Len: len(p.buf)})
	}
	o.c.readVRPCs.Add(1)
	o.c.readVExtents.Add(int64(len(ps)))
	return ReadVReq{Ctx: x.ctx, VDisk: x.v, Extents: x.rexts[lo:]}
}

func (o readOp) settle(srv string, ps []piece, resp any) (unserved []piece, err error) {
	rr, ok := resp.(ReadVResp)
	if !ok {
		return ps, nil
	}
	// On TCP the data aliases a pooled receive buffer; recycle it once
	// every extent has been copied out.
	defer rpc.Release(resp)
	if !rr.OK {
		return ps, replyErr("read", rr.Err)
	}
	if len(rr.Results) != len(ps) {
		return ps, fmt.Errorf("petal read: %d results for %d extents", len(rr.Results), len(ps))
	}
	var primary, backup int64
	for i, res := range rr.Results {
		if !res.OK {
			// Leave the destination untouched; the replica that serves
			// the piece fills (or zeroes) it.
			unserved = append(unserved, ps[i])
			err = replyErr("read", res.Err)
			continue
		}
		// A short (or nil, for a hole) result must not leave stale
		// bytes in the tail of the destination.
		n := copy(ps[i].buf, res.Data)
		clear(ps[i].buf[n:])
		if of := ps[i].tl.primary; of == srv {
			primary += int64(len(ps[i].buf))
		} else if of != "" {
			backup += int64(len(ps[i].buf))
		}
	}
	if primary+backup > 0 {
		o.c.readPrimary.Add(primary)
		o.c.readBackup.Add(backup)
		p, b := o.c.readPrimary.Value(), o.c.readBackup.Value()
		o.c.balancePct.Set(b * 100 / (p + b))
	}
	return unserved, err
}

// writeOp is the write direction: primary-first routing and
// WriteVReq, stamped with the caller's lease (read once per call) and
// with the vdisk epoch of the view each attempt routes with, so
// replicas lagging a snapshot wait for Paxos catch-up instead of
// writing into the frozen epoch. A batch is applied or rejected
// whole; replays are idempotent at the store.
type writeOp struct {
	c        *Client
	expireAt int64
}

func (writeOp) name() string { return "write" }

func (o writeOp) route(st *GlobalState, v VDiskID, p *piece) {
	o.c.targets(st, v, p.chunk, &p.tl)
}

func (writeOp) charge(string, int) {}

func (o writeOp) request(x *xfer, ps []piece) any {
	lo := len(x.wexts)
	for _, p := range ps {
		x.wexts = append(x.wexts, WriteVExtent{Chunk: p.chunk, Off: p.off, Data: p.buf})
	}
	req := WriteVReq{Ctx: x.ctx, VDisk: x.v, Extents: x.wexts[lo:], ExpireAt: o.expireAt}
	if meta, ok := x.st.VDisks[x.v]; ok && !meta.ReadOnly {
		req.Epoch = meta.Epoch
	}
	o.c.writeVRPCs.Add(1)
	o.c.writeVExtents.Add(int64(len(ps)))
	return req
}

func (o writeOp) settle(_ string, ps []piece, resp any) ([]piece, error) {
	wr, ok := resp.(WriteVResp)
	if !ok {
		return ps, nil
	}
	if wr.OK {
		return nil, nil
	}
	err := replyErr("write", wr.Err)
	if staleView(err) {
		return ps, err
	}
	if errors.Is(err, ErrLeaseExpired) {
		o.c.jr.Record("petal", "write", "lease-rejected", uint64(ps[0].chunk), 0, "")
	}
	return nil, err
}

// Read fills p from the virtual disk at byte offset off. Uncommitted
// ranges read as zeros.
func (c *Client) Read(v VDiskID, off int64, p []byte) error {
	return c.read("read", v, ReadExtent{Off: off, Dst: p})
}

// ReadExtent is one destination range of a scatter-gather read: Dst
// is filled from byte offset Off of the virtual disk.
type ReadExtent struct {
	Off int64
	Dst []byte
}

// ReadV fills every extent's Dst in as few server round trips as
// possible: extents are split at chunk boundaries and each server is
// sent one batch of everything routed to it. A failed extent never
// leaves stale bytes in its destination.
func (c *Client) ReadV(v VDiskID, extents []ReadExtent) error {
	return c.read("readv", v, extents...)
}

// read is Read and ReadV.
func (c *Client) read(op string, v VDiskID, extents ...ReadExtent) error {
	for _, e := range extents {
		if e.Off < 0 {
			return ErrBounds
		}
	}
	return c.instr(op, func(ctx obs.Ctx) error {
		lone := c.reads.Add(1) == 1 && !c.ahead
		x := c.newXfer(ctx, v, false)
		x.ps = c.readPieces(x.ps, v, extents, lone)
		err := c.transfer(x)
		c.reads.Add(-1)
		x.release()
		return err
	})
}

// readPieces appends to dst a read's extents cut into pieces under the
// view its first attempt will route them with (appendPieces): every
// span of half a chunk or more that the view balances is halved. A read
// that is lone — no other read of this client in flight — and halves
// one span, whatever small pieces come beside it, has that span
// quartered instead: each replica's half leaves as two requests, one
// right behind the other, so the replica's reply to the first part is
// on the wire while its disk reads the second. Reads with others in
// flight keep their halves: the others already overlap their disks and
// links. So does read-ahead (Ahead), even alone: nobody waits for it,
// and two more requests would buy no one any time. With no view to be
// had nothing is cut, and transfer reports why there is none.
func (c *Client) readPieces(dst []piece, v VDiskID, extents []ReadExtent, lone bool) []piece {
	var cut func(chunk int64) int
	halved, parts := 0, 2
	if st, err := c.getState(); err == nil {
		cut = func(chunk int64) int {
			if _, _, ok := c.balanced(&st, v, chunk); !ok {
				return 1
			}
			halved++
			return parts
		}
	}
	start := len(dst)
	for _, e := range extents {
		dst = appendPieces(dst, e.Off, e.Dst, cut)
	}
	if lone && halved == 1 {
		c.readLone.Inc()
		dst, parts = dst[:start], 4
		for _, e := range extents {
			dst = appendPieces(dst, e.Off, e.Dst, cut)
		}
	}
	return dst
}

// Write stores p at byte offset off, committing chunks as needed. The
// caller may reuse p as soon as Write returns.
func (c *Client) Write(v VDiskID, off int64, p []byte) error {
	if off < 0 {
		return ErrBounds
	}
	return c.instr("write", func(ctx obs.Ctx) error {
		// The in-memory transport passes payloads by reference and
		// the caller may keep mutating its buffer (a cache page, the
		// WAL's flush buffer) after we return; snapshot the bytes here,
		// where a real driver would DMA. The snapshot comes from the
		// shared size-classed pool, so the write path recycles a small
		// working set of buffers.
		bufp := bufpool.Get(len(p))
		copy(*bufp, p)
		x := c.newXfer(ctx, v, true)
		x.ps = appendPieces(x.ps, off, *bufp, nil)
		err := c.transfer(x)
		if !x.timedOut {
			// Every call was answered, so no in-flight message can
			// still reference the snapshot; safe to recycle.
			bufpool.Put(bufp)
		}
		x.release()
		return err
	})
}

// Extent is one contiguous byte range of a scatter-gather write.
type Extent struct {
	Off  int64
	Data []byte
}

// WriteV stores every extent in as few server round trips as
// possible: extents are split at chunk boundaries and each primary is
// sent one batch, applied under a single lease/epoch check. Unlike
// Write it sends the caller's buffers themselves: the caller must not
// mutate extent data until WriteV returns.
func (c *Client) WriteV(v VDiskID, extents []Extent) error {
	for _, e := range extents {
		if e.Off < 0 {
			return ErrBounds
		}
	}
	return c.instr("writev", func(ctx obs.Ctx) error {
		x := c.newXfer(ctx, v, true)
		for _, e := range extents {
			x.ps = appendPieces(x.ps, e.Off, e.Data, nil)
		}
		err := c.transfer(x)
		x.release()
		return err
	})
}

// admin submits a global-state command via any answering server, and
// returns once the command holds everywhere a data call can go.
func (c *Client) admin(cmd Command) error {
	var lastErr error = ErrUnavailable
	for _, s := range c.servers {
		resp, err := c.ep.Call(DataAddr(s), AdminReq{Cmd: cmd}, 120*time.Second)
		if err != nil {
			lastErr = err
			continue
		}
		ar, ok := resp.(AdminResp)
		if !ok {
			continue
		}
		if !ar.OK {
			return fmt.Errorf("petal admin: %s", ar.Err)
		}
		c.settle(s)
		return nil
	}
	return lastErr
}

// settle follows an admin command that server applied has accepted — and
// so has applied: it adopts that server's view and waits until the other
// live servers have caught up with it. They apply Paxos decisions
// asynchronously, and a server that has not heard of a new virtual disk
// refuses the first write to it — if that write is a primary's forward,
// the primary acknowledges it all the same and the copy is missing until
// the primary's repair pushes it — while one that has not heard of a deletion still
// serves the disk. A server that does not answer is skipped; one still
// behind after dataTimeout is left to catch up on its own.
func (c *Client) settle(applied string) {
	c.mu.Lock()
	have := int64(-1)
	if c.stateOK {
		have = c.state.Version
	}
	c.mu.Unlock()
	version := func(srv string, have int64) (StateResp, bool) {
		c.refreshRPCs.Add(1)
		resp, err := c.ep.Call(DataAddr(srv), StateReq{HaveVersion: have}, dataTimeout)
		sr, ok := resp.(StateResp)
		return sr, err == nil && ok && sr.OK
	}
	sr, ok := version(applied, have)
	if !ok {
		_ = c.refreshSince(have) // it has gone away since; any newer view will do
		return
	}
	if !sr.Unchanged {
		c.adoptState(sr.State)
	}
	c.mu.Lock()
	alive := c.state.Alive
	c.mu.Unlock()
	deadline := c.clock.Now() + sim.Time(dataTimeout)
	_ = BoundedPar(4, len(c.servers), func(i int) error {
		srv := c.servers[i]
		if srv == applied || !alive[srv] {
			return nil
		}
		for c.clock.Now() < deadline {
			// A version nobody has makes the answer the short one.
			if r, ok := version(srv, math.MaxInt64); !ok || r.Version >= sr.Version {
				break
			}
			c.clock.Sleep(5 * time.Millisecond)
		}
		return nil
	})
}

// CreateVDisk creates a new writable virtual disk.
func (c *Client) CreateVDisk(id VDiskID) error { return c.admin(CmdCreateVDisk{ID: id}) }

// DeleteVDisk removes a virtual disk.
func (c *Client) DeleteVDisk(id VDiskID) error { return c.admin(CmdDeleteVDisk{ID: id}) }

// Snapshot creates a read-only, crash-consistent snapshot of parent
// named snap: "Petal allows a client to create an exact copy of a
// virtual disk at any point in time ... using copy-on-write
// techniques" (§8).
func (c *Client) Snapshot(parent, snap VDiskID) error {
	return c.admin(CmdSnapshot{Parent: parent, Snap: snap})
}

// Decommit frees physical storage backing [off, off+length) of the
// virtual disk. Only whole chunks fully inside the range are freed,
// matching Petal's 64 KB decommit granularity.
func (c *Client) Decommit(v VDiskID, off int64, length int64) error {
	first := (off + ChunkSize - 1) / ChunkSize
	last := (off+length)/ChunkSize - 1
	if last < first {
		return nil
	}
	// Every server sweeps its own committed chunks in the range; the
	// request is O(1) on the wire and O(committed) at each server.
	any := false
	for _, srv := range c.servers {
		resp, err := c.ep.Call(DataAddr(srv), DecommitReq{Ctx: c.op.Ctx(), VDisk: v, FirstChunk: first, LastChunk: last}, dataTimeout)
		if err != nil {
			continue
		}
		if ar, ok := resp.(AdminResp); ok {
			if !ar.OK {
				return fmt.Errorf("petal decommit: %s", ar.Err)
			}
			any = true
		}
	}
	if !any {
		return ErrUnavailable
	}
	return nil
}

// ListChunks enumerates the committed chunk indexes of a vdisk by
// querying every server; restore tooling uses it to copy only
// committed space.
func (c *Client) ListChunks(v VDiskID) ([]int64, error) {
	seen := make(map[int64]bool)
	any := false
	for _, s := range c.servers {
		resp, err := c.ep.Call(DataAddr(s), ListChunksReq{VDisk: v}, dataTimeout)
		if err != nil {
			continue
		}
		if lr, ok := resp.(ListChunksResp); ok {
			any = true
			for _, ch := range lr.Chunks {
				seen[ch] = true
			}
		}
	}
	if !any {
		return nil, ErrUnavailable
	}
	out := make([]int64, 0, len(seen))
	for ch := range seen {
		out = append(out, ch)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// State returns the client's (possibly refreshed) view of the global
// state.
func (c *Client) State() (GlobalState, error) { return c.getState() }

// VDisk binds a client and a disk id into a handle with a local-disk
// feel.
type VDisk struct {
	c  *Client
	id VDiskID
}

// Open returns a handle for the named virtual disk.
func (c *Client) Open(id VDiskID) *VDisk { return &VDisk{c: c, id: id} }

// ID returns the vdisk name.
func (d *VDisk) ID() VDiskID { return d.id }

// ReadAt fills p at byte offset off.
func (d *VDisk) ReadAt(p []byte, off int64) error { return d.c.Read(d.id, off, p) }

// WriteAt stores p at byte offset off.
func (d *VDisk) WriteAt(p []byte, off int64) error { return d.c.Write(d.id, off, p) }

// WriteV stores a set of extents with one scatter-gather call.
func (d *VDisk) WriteV(extents []Extent) error { return d.c.WriteV(d.id, extents) }

// ReadV fills a set of extents with one scatter-gather call.
func (d *VDisk) ReadV(extents []ReadExtent) error { return d.c.ReadV(d.id, extents) }
