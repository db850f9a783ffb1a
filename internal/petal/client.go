package petal

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"frangipani/internal/bufpool"
	"frangipani/internal/obs"
	"frangipani/internal/paxos"
	"frangipani/internal/reuse"
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
// same driver whose calls are made on behalf of an operation. A view is
// a value of three words, and its methods take it by value, so a view
// made for one call costs nothing on the heap.
type Client struct {
	*driver
	// op is the operation this view's calls are made for: they open
	// their spans under it, are charged to its principal, and stamp
	// their requests with its context. Nil for the driver's own view.
	op *obs.Span
	// overlapped marks a view whose reads nobody waits for — read-ahead —
	// and which overlap one another already: none of them is lone
	// (plan.go).
	overlapped bool
}

// For returns a view of the client whose calls run on behalf of op.
func (c Client) For(op *obs.Span) Client {
	c.op = op
	return c
}

// Overlapped returns a view of the client for reads nobody waits for
// and which overlap one another already — read-ahead: they are never
// lone, and count as in flight, as any read does. Its writes are any
// view's.
func (c Client) Overlapped() *Client {
	return &Client{driver: c.driver, op: c.op, overlapped: true}
}

// driver is the state every view of one Client shares.
type driver struct {
	name    string
	ep      *rpc.Endpoint
	clock   *sim.Clock
	servers []string
	addrs   map[string]string // DataAddr of each server, made once

	// follow keeps the view of the global state, version-aware: its
	// petal.refresh.{rpcs,skipped,unchanged} counters are what the
	// control plane costs this client.
	follow *paxos.Follower[GlobalState]

	mu sync.Mutex // guards leaseInfo
	// leaseInfo, when set, stamps writes with the holder's lease
	// expiration so guarded Petal servers can reject writes from
	// expired leases (§6's hazard fix).
	leaseInfo func() (expireAt int64)

	// opDeadline bounds one data call including retries.
	opDeadline sim.Duration
	// parallelism bounds one data call's concurrent RPCs, which run on
	// workers; Close ends them.
	parallelism int
	workers     Workers
	// xfers are the scratches of finished calls, for newXfer to take.
	xfers reuse.List[*xfer]

	// balanceReads spreads first-choice read routing across both alive
	// replicas (Petal serves reads from either copy, §4 of the Petal
	// paper). Benchmarks switch it off to measure the primary-only
	// baseline.
	balanceReads atomic.Bool
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
	readLone      *obs.Counter // lone reads, each replica's half cut in two (plan.go)
	writeParted   *obs.Counter // parted writes, a chunk span cut in two (plan.go)

	// reads counts this client's read calls in flight: a read that finds
	// no other is lone.
	reads atomic.Int32

	// infl is the load signal read routing balances on: per server, the
	// bytes of this client's reads that have been routed to it and not
	// yet answered. A round's pieces are charged as the round is planned,
	// not when its RPCs leave, so pieces planned in the same instant (the
	// extents of one ReadV, eight prefetches started together) see each
	// other; the bytes are given back when the batch that carries them
	// returns, answered or not, and charged again wherever a piece fails
	// over to. Bytes, not RPCs, because a server's arm and link are busy
	// for as long as the bytes take.
	infl map[string]*obs.Gauge
	// routeMu makes a read round's plan and its charges one step, and
	// guards rr, the planner's round-robin tie-break between equally
	// loaded replicas.
	routeMu sync.Mutex
	rr      uint64

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
func (c Client) Stats() ClientStats {
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
	reg := w.Obs
	counter := func(name string) *obs.Counter {
		if reg == nil {
			return obs.NewCounter() // Stats still counts
		}
		return reg.Counter("petal." + name + "#" + machine)
	}
	gauge := func(name, key string) *obs.Gauge {
		if reg == nil {
			return obs.NewGauge()
		}
		return reg.Gauge("petal." + name + "#" + key)
	}
	c := &Client{driver: &driver{
		name:          machine,
		clock:         w.Clock,
		servers:       append([]string(nil), servers...),
		addrs:         dataAddrs(servers),
		opDeadline:    30 * time.Second,
		parallelism:   8,
		randIntn:      w.RandIntn,
		writeVRPCs:    counter("writev.rpcs"),
		writeVExtents: counter("writev.extents"),
		readVRPCs:     counter("readv.rpcs"),
		readVExtents:  counter("readv.extents"),
		readPrimary:   counter("read.primary"),
		readBackup:    counter("read.backup"),
		balancePct:    gauge("read.balance.pct", machine),
		readLone:      counter("read.lone"),
		writeParted:   counter("write.parted"),
		infl:          make(map[string]*obs.Gauge, len(servers)),
	}}
	c.balanceReads.Store(true)
	for _, s := range servers {
		c.infl[s] = gauge("client.inflight", machine+"."+s)
	}
	if reg != nil {
		c.now = reg.Now
		c.acct = reg.Accounts()
		c.jr = reg.Journal(machine)
		c.opLats = map[string]*obs.Histogram{
			"read":   reg.Histogram("petal.read.latency#" + machine),
			"readv":  reg.Histogram("petal.readv.latency#" + machine),
			"write":  reg.Histogram("petal.write.latency#" + machine),
			"writev": reg.Histogram("petal.writev.latency#" + machine),
		}
	}
	c.ep = rpc.NewEndpoint(ClientAddr(machine), carrier, w.Clock, nil)
	c.follow = paxos.NewFollower[GlobalState](c.ep, servers, DataAddr, reg, "petal.refresh", machine)
	return c
}

// instr wraps one client operation in a latency histogram and — when
// the view is bound to a traced operation — a child span, so the
// operation appears in cross-layer trace trees; fn gets that span's
// context to stamp on the requests it sends, which carries the trace to
// the Petal servers.
func (c Client) instr(op string, fn func(ctx obs.Ctx) error) error {
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
func (c Client) SetLeaseInfo(f func() (expireAt int64)) {
	c.mu.Lock()
	c.leaseInfo = f
	c.mu.Unlock()
}

// Close releases the client's endpoint and ends its fan-out workers.
func (c Client) Close() {
	c.ep.Close()
	c.workers.Close()
}

// State returns the client's view of the global state, refreshed first
// when it has none.
func (c Client) State() (GlobalState, error) {
	st, ver := c.follow.View()
	if ver < 0 {
		if c.follow.Refresh(-1) != nil {
			return GlobalState{}, ErrUnavailable
		}
		st, _ = c.follow.View()
	}
	return st, nil
}

// SetReadBalance toggles read load balancing across replicas. On (the
// default), first-choice read routing spreads over both alive copies;
// off, reads always prefer the primary — the pre-optimization
// behaviour, kept as a benchmark baseline.
func (c Client) SetReadBalance(on bool) { c.balanceReads.Store(on) }

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
func (c Client) retryPause(attempt int, deadline sim.Time) {
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
func (c Client) start(who, srv string, req any) (rpc.Pending, error) {
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

// callTimeout is how long one data RPC may take before the client
// fails over: dataTimeout per chunk's worth of bytes it carries,
// at most three of them.
func callTimeout(bytes int) sim.Duration {
	chunks := (bytes + ChunkSize - 1) / ChunkSize
	return dataTimeout * sim.Duration(min(max(chunks, 1), 3))
}

// xfer is the scratch of one data call: the planner's input and its
// current round's plan, that round's requests and their extent lists,
// and what the round's concurrent batches share (mu guards next, parked,
// lastErr and timedOut; the rest they only read). The requests are sent
// by pointer into rreqs or wreqs, so a request costs no allocation of its
// own. A call takes one from its driver's xfers and gives it back when
// every RPC it made was answered; a request that was not may still be queued at the
// carrier, so its xfer is left to the collector. send is the bound
// sendBatch the fan-out runs, made once per xfer rather than once per
// round, and fan is what the fan-out's workers share.
type xfer struct {
	c        Client
	ctx      obs.Ctx
	in       planIn
	st       GlobalState // the view in.view points at
	expireAt int64       // a write's lease stamp
	pl       plan

	exts  []Extent // a read's extents, as the planner takes them
	rexts []ReadVExtent
	wexts []WriteVExtent
	rreqs []ReadVReq
	wreqs []WriteVReq

	mu       sync.Mutex
	next     []piece // unserved: offered to the replicas not yet tried
	parked   []piece // wait for a refreshed view
	lastErr  error
	timedOut bool

	send func(i int) error
	fan  FanOut
}

// newXfer takes a scratch for a call on v made for ctx: a read, or a
// write stamped with the caller's lease (read once per call).
func (c Client) newXfer(ctx obs.Ctx, v VDiskID, write bool) *xfer {
	x, ok := c.xfers.Take()
	if !ok {
		x = new(xfer)
		x.send = x.sendBatch
	}
	x.c, x.ctx = c, ctx
	x.in = planIn{v: v, write: write, balance: c.balanceReads.Load(), load: c.driver}
	if write {
		c.mu.Lock()
		li := c.leaseInfo
		c.mu.Unlock()
		if li != nil {
			x.expireAt = li()
		}
	}
	return x
}

// release gives x back to its driver's xfers, pointing at nothing,
// unless one of its calls went unanswered.
func (x *xfer) release() {
	if x.timedOut {
		return
	}
	bs := x.pl.batches[:cap(x.pl.batches)]
	for i := range bs {
		reset(&bs[i].ps)
		reset(&bs[i].tails)
		bs[i].req, bs[i].tail = nil, nil
	}
	for _, ps := range [...]*[]piece{&x.pl.cut, &x.pl.none, &x.next, &x.parked} {
		reset(ps)
	}
	reset(&x.exts)
	reset(&x.wexts)
	reset(&x.rreqs)
	reset(&x.wreqs)
	x.pl.batches = x.pl.batches[:0]
	d := x.c.driver
	x.c, x.in, x.st, x.ctx, x.lastErr, x.expireAt = Client{}, planIn{}, GlobalState{}, obs.Ctx{}, nil, 0
	d.xfers.Put(x)
}

// reset empties *s, zeroing its storage so that a pooled xfer holds no
// caller's buffer.
func reset[T any](s *[]T) {
	clear((*s)[:cap(*s)])
	*s = (*s)[:0]
}

// outstanding is the bytes of this client's reads routed to srv and not
// yet answered: what the planner balances reads on.
func (d *driver) outstanding(srv string) int64 { return d.infl[srv].Value() }

// transfer is the one engine behind Read, ReadV, Write and WriteV: it
// moves exts, failing over what is not served, until the op deadline.
// Each attempt takes the routing view and runs rounds: plan them
// (plan.go), send every batch with bounded parallelism, keep what was
// served and plan again for what was not — a call error, a
// replica-local failure — on the replicas it has not tried, so failover
// costs one RPC per surviving replica, not one per extent. What has no
// replica left, or was refused for the view itself, waits for the next
// attempt, which refreshes the view and backs off first. A read's bytes
// are charged to the server a batch carries them to as the round is
// planned and given back when the batch's call returns, so a piece that
// is parked, has no candidate left or was never routed holds no charge.
// x.timedOut reports that some call got no answer, so its request may
// still be queued at the carrier, aliasing the pieces' buffers. Every
// request carries x.ctx, the context of the operation the call is made
// for, and every RPC is charged to its principal.
func (c Client) transfer(x *xfer, exts []Extent) (err error) {
	deadline := c.clock.Now() + sim.Time(c.opDeadline)
	var ps []piece
	for attempt := 0; ; attempt++ {
		routedVer := int64(-1)
		x.in.view = nil
		if x.st, err = c.State(); err == nil {
			x.in.view, routedVer = &x.st, x.st.Version
		}
		for i := range ps { // a new view: every replica may be tried again
			ps[i].tried, ps[i].primary = 0, ""
		}
		for round := 0; round == 0 || len(ps) > 0; round++ {
			x.plan(exts, ps)
			exts = nil
			if round == 0 {
				x.parked = x.parked[:0]
			}
			x.parked = append(x.parked, x.pl.none...)
			x.next = x.next[:0]
			x.requests()
			if final := c.workers.Run(&x.fan, c.parallelism, len(x.pl.batches), x.send); final != nil {
				return final
			}
			ps = x.next
		}
		if ps = x.parked; len(ps) == 0 {
			return nil
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
		_ = c.follow.Refresh(routedVer)
		c.retryPause(attempt, deadline)
	}
}

// plan plans a round. A read's round is planned and its bytes charged in
// one step under routeMu, so the next read planned sees them.
func (x *xfer) plan(exts []Extent, ps []piece) {
	c := x.c
	if x.in.write {
		x.pl.build(&x.in, exts, ps)
		if x.pl.parted {
			c.writeParted.Inc()
		}
		return
	}
	c.routeMu.Lock()
	x.in.rr = c.rr
	x.pl.build(&x.in, exts, ps)
	c.rr = x.pl.rr
	for _, b := range x.pl.batches {
		c.infl[b.srv].Add(int64(b.bytes))
	}
	c.routeMu.Unlock()
	if x.pl.parted {
		c.readLone.Inc()
	}
}

// requests builds every batch's requests. The requests and extent lists
// of a round whose calls were all answered are reused by the next; once a
// call has gone unanswered its request may still be queued, and later
// rounds make new ones.
func (x *xfer) requests() {
	if x.timedOut {
		x.rexts, x.wexts, x.rreqs, x.wreqs = nil, nil, nil, nil
	}
	x.rexts, x.wexts = x.rexts[:0], x.wexts[:0]
	// Room for a head and a tail request a batch, so that no append moves
	// a request sent by pointer.
	x.rreqs = slices.Grow(x.rreqs[:0], 2*len(x.pl.batches))
	x.wreqs = slices.Grow(x.wreqs[:0], 2*len(x.pl.batches))
	for i := range x.pl.batches {
		b := &x.pl.batches[i]
		b.req, b.tail = x.request(b.ps), nil
		if len(b.tails) > 0 {
			b.tail = x.request(b.tails)
		}
	}
}

// request builds the one message that carries ps, stamped with the
// context of the operation it is sent for, in x's requests and its extent
// list on x's, and returns it by pointer. A write's carries the caller's
// lease and the vdisk epoch of the view the round was planned with, so
// replicas lagging a snapshot wait for Paxos catch-up instead of writing
// into the frozen epoch.
func (x *xfer) request(ps []piece) any {
	c := x.c
	if !x.in.write {
		lo := len(x.rexts)
		for _, p := range ps {
			x.rexts = append(x.rexts, ReadVExtent{Chunk: p.chunk, Off: p.off, Len: len(p.buf)})
		}
		c.readVRPCs.Add(1)
		c.readVExtents.Add(int64(len(ps)))
		x.rreqs = append(x.rreqs, ReadVReq{Ctx: x.ctx, VDisk: x.in.v, Extents: x.rexts[lo:]})
		return &x.rreqs[len(x.rreqs)-1]
	}
	lo := len(x.wexts)
	for _, p := range ps {
		x.wexts = append(x.wexts, WriteVExtent{Chunk: p.chunk, Off: p.off, Data: p.buf})
	}
	req := WriteVReq{Ctx: x.ctx, VDisk: x.in.v, Extents: x.wexts[lo:], ExpireAt: x.expireAt}
	if meta, ok := x.st.VDisks[x.in.v]; ok && !meta.ReadOnly {
		req.Epoch = meta.Epoch
	}
	c.writeVRPCs.Add(1)
	c.writeVExtents.Add(int64(len(ps)))
	x.wreqs = append(x.wreqs, req)
	return &x.wreqs[len(x.wreqs)-1]
}

// sendBatch sends batch i and files what it did not get served: one
// index of a round's fan-out. A batch with a tail request sends it right
// behind the first, before either reply is in: a read's server reads the
// tail off its disk while the first reply is on the wire, and a write's
// primary applies and forwards the first while the tail is.
func (x *xfer) sendBatch(i int) error {
	b := &x.pl.batches[i]
	timeout := callTimeout(b.bytes)
	p, err := x.c.start(x.ctx.Principal, b.srv, b.req)
	if b.tail == nil {
		resp, err := wait(p, err, timeout)
		return x.finish(b.srv, b.ps, resp, err)
	}
	tp, terr := x.c.start(x.ctx.Principal, b.srv, b.tail)
	resp, err := wait(p, err, timeout)
	first := x.finish(b.srv, b.ps, resp, err)
	resp, err = wait(tp, terr, timeout)
	if err := x.finish(b.srv, b.tails, resp, err); first == nil {
		first = err
	}
	return first
}

// finish gives back the read bytes of the pieces ps that one call to srv
// carried, settles the call's reply — resp, or callErr — and files what
// it did not get served: to the next round, or, when the view itself was
// refused, to the next attempt.
func (x *xfer) finish(srv string, ps []piece, resp any, callErr error) error {
	c, name := x.c, "write"
	if !x.in.write {
		name = "read"
		n := 0
		for _, p := range ps {
			n += len(p.buf)
		}
		c.infl[srv].Add(int64(-n))
	}
	unserved, err, verb := ps, callErr, "failover"
	if callErr == nil {
		verb = "replica-fail"
		if x.in.write {
			unserved, err = x.settleWrite(ps, resp)
		} else {
			unserved, err = x.settleRead(srv, ps, resp)
		}
	}
	if len(unserved) == 0 {
		return err
	}
	c.jr.Record("petal", name, verb, uint64(unserved[0].chunk), int64(len(unserved)), srv)
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

// settleRead consumes srv's reply to a read request and returns the
// pieces it did not serve and why. Results are per extent, so a
// replica-local failure (e.g. a CRC error) fails over only the damaged
// extents — the other replica "can ordinarily recover it" (§4) — and
// served data is kept.
func (x *xfer) settleRead(srv string, ps []piece, resp any) (unserved []piece, err error) {
	rr, ok := resp.(*ReadVResp)
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
		if of := ps[i].primary; of == srv {
			primary += int64(len(ps[i].buf))
		} else if of != "" {
			backup += int64(len(ps[i].buf))
		}
	}
	if c := x.c; primary+backup > 0 {
		c.readPrimary.Add(primary)
		c.readBackup.Add(backup)
		p, b := c.readPrimary.Value(), c.readBackup.Value()
		c.balancePct.Set(b * 100 / (p + b))
	}
	return unserved, err
}

// settleWrite consumes the reply to a write request, which is applied or
// refused whole (replays are idempotent at the store), and returns the
// pieces it did not serve and why. An error with nothing left to retry
// is final: no replica would answer differently.
func (x *xfer) settleWrite(ps []piece, resp any) ([]piece, error) {
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
		x.c.jr.Record("petal", "write", "lease-rejected", uint64(ps[0].chunk), 0, "")
	}
	return nil, err
}

// Read fills p from the virtual disk at byte offset off. Uncommitted
// ranges read as zeros.
func (c Client) Read(v VDiskID, off int64, p []byte) error {
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
func (c Client) ReadV(v VDiskID, extents []ReadExtent) error {
	return c.read("readv", v, extents...)
}

// read is Read and ReadV. A read is lone when no other read of this
// client is in flight and the view is not Overlapped (plan.go cuts it in
// parts).
func (c Client) read(op string, v VDiskID, extents ...ReadExtent) error {
	for _, e := range extents {
		if e.Off < 0 {
			return ErrBounds
		}
	}
	return c.instr(op, func(ctx obs.Ctx) error {
		x := c.newXfer(ctx, v, false)
		x.in.lone = c.reads.Add(1) == 1 && !c.overlapped
		for _, e := range extents {
			x.exts = append(x.exts, Extent{Off: e.Off, Data: e.Dst})
		}
		err := c.transfer(x, x.exts)
		c.reads.Add(-1)
		x.release()
		return err
	})
}

// Write stores p at byte offset off, committing chunks as needed. The
// caller may reuse p as soon as Write returns.
func (c Client) Write(v VDiskID, off int64, p []byte) error {
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
		err := c.transfer(x, []Extent{{Off: off, Data: *bufp}})
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
func (c Client) WriteV(v VDiskID, extents []Extent) error {
	for _, e := range extents {
		if e.Off < 0 {
			return ErrBounds
		}
	}
	return c.instr("writev", func(ctx obs.Ctx) error {
		x := c.newXfer(ctx, v, true)
		err := c.transfer(x, extents)
		x.release()
		return err
	})
}

// admin submits a global-state command via any answering server, and
// returns once the command holds everywhere a data call can go.
func (c Client) admin(cmd Command) error {
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
func (c Client) settle(applied string) {
	_, have := c.follow.View()
	sr, err := c.follow.Ask(DataAddr(applied), have)
	if err != nil {
		_ = c.follow.Refresh(have) // it has gone away since; any newer view will do
		return
	}
	if st, ok := sr.State.(GlobalState); ok {
		c.follow.Adopt(st, sr.Version)
	}
	view, _ := c.follow.View()
	deadline := c.clock.Now() + sim.Time(dataTimeout)
	var fo FanOut
	_ = c.workers.Run(&fo, 4, len(c.servers), func(i int) error {
		srv := c.servers[i]
		if srv == applied || !view.Alive[srv] {
			return nil
		}
		for c.clock.Now() < deadline {
			// A version nobody has makes the answer the short one.
			if r, err := c.follow.Ask(addrOf(c.addrs, srv), math.MaxInt64); err != nil || r.Version >= sr.Version {
				break
			}
			c.clock.Sleep(5 * time.Millisecond)
		}
		return nil
	})
}

// CreateVDisk creates a new writable virtual disk.
func (c Client) CreateVDisk(id VDiskID) error { return c.admin(CmdCreateVDisk{ID: id}) }

// DeleteVDisk removes a virtual disk.
func (c Client) DeleteVDisk(id VDiskID) error { return c.admin(CmdDeleteVDisk{ID: id}) }

// Snapshot creates a read-only, crash-consistent snapshot of parent
// named snap: "Petal allows a client to create an exact copy of a
// virtual disk at any point in time ... using copy-on-write
// techniques" (§8).
func (c Client) Snapshot(parent, snap VDiskID) error {
	return c.admin(CmdSnapshot{Parent: parent, Snap: snap})
}

// Decommit frees physical storage backing [off, off+length) of the
// virtual disk. Only whole chunks fully inside the range are freed,
// matching Petal's 64 KB decommit granularity.
func (c Client) Decommit(v VDiskID, off int64, length int64) error {
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
func (c Client) ListChunks(v VDiskID) ([]int64, error) {
	var out []int64
	any := false
	for _, s := range c.servers {
		resp, _ := c.ep.Call(DataAddr(s), ListChunksReq{VDisk: v}, dataTimeout)
		if lr, ok := resp.(ListChunksResp); ok {
			any = true
			out = append(out, lr.Chunks...)
		}
	}
	if !any {
		return nil, ErrUnavailable
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}
