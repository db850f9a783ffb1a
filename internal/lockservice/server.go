package lockservice

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/paxos"
	"frangipani/internal/reuse"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// Config tunes a lock server.
type Config struct {
	LeaseDuration  sim.Duration
	HeartbeatEvery sim.Duration
	SuspectAfter   sim.Duration
	RevokeRetry    sim.Duration // retransmit interval for revokes
	SweepEvery     sim.Duration // lease-expiry sweep period
	SyncTimeout    sim.Duration // clerk state recovery deadline
	// IdleDiscard is how long a clerk keeps an unused sticky grant
	// before releasing it to bound lock memory (§6; 1 hour). Zero
	// uses the default.
	IdleDiscard sim.Duration
	// Shards is the number of lock-table shards (0 = DefaultShards).
	// Every server and clerk of one deployment must agree on it.
	Shards int
	// CPUPerMsg and CPUPerOp override the modelled protocol-processing
	// cost per inbound message / per lock operation carried (0 = the
	// package defaults). Experiments scale them up to move the
	// capacity wall down to op rates the host simulates faithfully.
	CPUPerMsg sim.Duration
	CPUPerOp  sim.Duration
}

// resolved fills in the defaults of zero fields. Servers and clerks
// resolve their Config once, at construction.
func (cfg Config) resolved() Config {
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = DefaultLeaseDuration
	}
	if cfg.IdleDiscard <= 0 {
		cfg.IdleDiscard = DefaultIdleDiscard
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.CPUPerMsg == 0 {
		cfg.CPUPerMsg = cpuPerMsg
	}
	if cfg.CPUPerOp == 0 {
		cfg.CPUPerOp = cpuPerOp
	}
	return cfg
}

// DefaultConfig returns paper-flavored timing (30 s leases).
func DefaultConfig() Config {
	return Config{
		LeaseDuration:  DefaultLeaseDuration,
		HeartbeatEvery: 2 * time.Second,
		SuspectAfter:   10 * time.Second,
		RevokeRetry:    2 * time.Second,
		SweepEvery:     5 * time.Second,
		SyncTimeout:    20 * time.Second,
		IdleDiscard:    DefaultIdleDiscard,
	}
}

// Modelled lock-server CPU cost, charged against a per-server
// sim.Resource: ~60 µs of protocol processing per message plus ~5 µs
// per lock operation carried. One server therefore saturates around
// 16 k messages/s — the capacity wall the lock-scaling experiment
// measures — and vectored batches amortize the per-message cost.
const (
	cpuPerMsg = 60 * time.Microsecond
	cpuPerOp  = 5 * time.Microsecond
)

// shardSync tracks reconstruction of one shard's state from clerks.
// A shard stays pending until EVERY live clerk has reported its held
// locks: granting from partial knowledge could hand out a lock some
// silent clerk still holds. Clerks whose sessions die are pruned (the
// recovery path releases their locks).
type shardSync struct {
	seq     uint64
	shards  []int
	waiting map[string]bool // clerks not yet heard from
}

// recoveryJob tracks crash recovery of one dead clerk.
type recoveryJob struct {
	dead      string
	table     string
	slot      int
	lease     uint64
	recoverer string
	seq       uint64
	lastSent  sim.Time
}

// Server is one lock server.
type Server struct {
	name string
	w    *sim.World
	cfg  Config
	ep   *rpc.Endpoint
	grp  *paxos.Group
	cpu  *sim.Resource // modelled protocol-processing capacity

	mu         sync.Mutex
	state      GState
	locks      map[lockKey]*lockState
	pendingGrp map[int]*shardSync // shard -> in-progress handoff sync
	renewals   map[string]sim.Time
	ackCast    map[string]sim.Time     // the last RenewAck cast to each clerk
	recoveries map[string]*recoveryJob // session key -> job
	nextSeq    uint64
	cancels    []func()
	// casts are empty cast lists for the handlers: one takes a list,
	// fills it under mu, sends what it holds after letting go of mu, and
	// gives it back (sendCasts), so a handler's casts need no list of
	// their own.
	casts reuse.List[[]cast]

	// clerkAddrs holds the ClerkAddr of every clerk this server has
	// sent to, so a message does not build its destination's name.
	addrMu     sync.Mutex
	clerkAddrs map[string]string

	reqC             *obs.Counter
	revC             *obs.Counter
	wrongC           *obs.Counter
	ackC             *obs.Counter // RenewAcks cast
	locksG, memBytes *obs.Gauge
	shardC           []*obs.Counter    // lazy per-shard op counters
	acct             *obs.AccountTable // per-principal server-op attribution
	jr               *obs.Journal      // flight recorder (nil-safe)
}

// Addr returns the network name of a lock server's endpoint.
func Addr(name string) string { return name + ".lock" }

// ClerkAddr returns the network name of a clerk's endpoint.
func ClerkAddr(machine string) string { return machine + ".clerk" }

// NewServer creates one lock server among the fixed peer set, on the
// world's simulated network.
func NewServer(w *sim.World, name string, peers []string, cfg Config) *Server {
	return NewServerWithCarrier(w, name, peers, cfg, rpc.SimCarrier{Net: w.Net})
}

// NewServerWithCarrier creates a lock server on an arbitrary message
// carrier (e.g. rpc.NewTCPCarrier() for real cross-process
// deployment).
func NewServerWithCarrier(w *sim.World, name string, peers []string, cfg Config, carrier rpc.Carrier) *Server {
	cfg = cfg.resolved()
	s := &Server{
		name:       name,
		w:          w,
		cfg:        cfg,
		state:      NewGState(peers, cfg.Shards),
		locks:      make(map[lockKey]*lockState),
		pendingGrp: make(map[int]*shardSync),
		renewals:   make(map[string]sim.Time),
		ackCast:    make(map[string]sim.Time),
		recoveries: make(map[string]*recoveryJob),
		clerkAddrs: make(map[string]string),
		cpu:        sim.NewResource(w.Clock, name+".lockcpu"),
	}
	s.shardC = make([]*obs.Counter, s.state.Shards)
	if reg := w.Obs; reg != nil {
		s.reqC = reg.Counter("lockservice.server.requests#" + name)
		s.revC = reg.Counter("lockservice.server.revokes#" + name)
		s.wrongC = reg.Counter("lockservice.server.wrongshard#" + name)
		s.ackC = reg.Counter("lockservice.server.renew.acks#" + name)
		s.locksG = reg.Gauge("lockservice.server.locks#" + name)
		s.memBytes = reg.Gauge("lockservice.server.bytes#" + name)
		s.acct = reg.Accounts()
		s.jr = reg.Journal(name)
	}
	s.grp = paxos.NewGroup(name, peers, carrier, w.Clock,
		cfg.HeartbeatEvery, cfg.SuspectAfter, s.jr, s.applyCmd, nil)
	s.ep = rpc.NewEndpoint(Addr(name), carrier, w.Clock, s.handle)
	s.cancels = append(s.cancels,
		w.Clock.Tick(cfg.SweepEvery, s.sweep),
		w.Clock.Tick(cfg.RevokeRetry, s.retryRevokes),
		w.Clock.Tick(cfg.SyncTimeout, s.syncRetry),
	)
	return s
}

// clerkAddr is clerk's ClerkAddr, built on the first message to it.
func (s *Server) clerkAddr(clerk string) string {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	a, ok := s.clerkAddrs[clerk]
	if !ok {
		a = ClerkAddr(clerk)
		s.clerkAddrs[clerk] = a
	}
	return a
}

// shardCounter returns the shared per-shard operation counter,
// creating it lazily so untouched shards do not pollute snapshots.
// Counters are named by shard (not by server), so after a handoff the
// new owner keeps incrementing the same series. Called with s.mu held.
func (s *Server) shardCounter(shard int) *obs.Counter {
	if shard < 0 || shard >= len(s.shardC) || s.w.Obs == nil {
		return nil
	}
	if s.shardC[shard] == nil {
		s.shardC[shard] = s.w.Obs.Counter(fmt.Sprintf("lockservice.shard.ops#s%03d", shard))
	}
	return s.shardC[shard]
}

// State returns a copy of this server's view of the global state.
func (s *Server) State() GState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Clone()
}

// Crash silences the server; its volatile lock state is lost.
func (s *Server) Crash() {
	s.grp.Crash()
	s.mu.Lock()
	s.locks = make(map[lockKey]*lockState) // volatile state dies
	s.pendingGrp = make(map[int]*shardSync)
	s.mu.Unlock()
}

// Restart revives a crashed server. Its group proposes it alive; the
// resulting reassignment hands it shards, whose state it then
// recovers from the clerks.
func (s *Server) Restart() {
	s.mu.Lock()
	// A fresh renewal table would read as "silence evidence" to the
	// coordinator's majority expiry rule; grant every known session a
	// fresh window instead.
	s.renewals = make(map[string]sim.Time)
	now := s.w.Clock.Now()
	for _, sess := range s.state.Sessions {
		s.renewals[sess.Clerk] = now
	}
	s.mu.Unlock()
	s.grp.Restart()
}

// Close shuts the server down permanently.
func (s *Server) Close() {
	s.grp.Close()
	for _, c := range s.cancels {
		c()
	}
	s.ep.Close()
}

// applyCmd applies a decided command and reacts to shard-map changes:
// shards lost are discarded immediately (phase one of the paper's
// reassignment), shards gained enter recovery from clerks (phase
// two). Epoch changes are journaled so forensics can replay who owned
// a shard when.
func (s *Server) applyCmd(seq int64, cmd paxos.Command) {
	s.mu.Lock()
	oldAssign := append([]string(nil), s.state.Assignment...)
	oldEpoch := s.state.Epoch
	s.state.Apply(cmd)
	newAssign := s.state.Assignment

	var gained, lost []int
	for sh := range newAssign {
		if oldAssign[sh] == newAssign[sh] {
			continue
		}
		if oldAssign[sh] == s.name {
			// Phase one: discard state for shards we lost.
			for k := range s.locks {
				if s.state.ShardOf(k.Lock) == sh {
					delete(s.locks, k)
				}
			}
			delete(s.pendingGrp, sh)
			lost = append(lost, sh)
		}
		if newAssign[sh] == s.name {
			gained = append(gained, sh)
		}
	}
	if s.state.Epoch != oldEpoch {
		moved := 0
		for sh := range newAssign {
			if oldAssign[sh] != newAssign[sh] {
				moved++
			}
		}
		s.jr.Record("lockservice", "shardmap", "epoch", 0, s.state.Epoch,
			fmt.Sprintf("%d shards reassigned (+%d/-%d here)", moved, len(gained), len(lost)))
	}
	if len(lost) > 0 {
		s.jr.Record("lockservice", "handoff", "dropped", 0, int64(len(lost)),
			fmt.Sprintf("shards %v surrendered", lost))
	}
	if c, ok := cmd.(CmdCloseSession); ok {
		s.dropClerkLocked(c.Clerk, c.Table)
		delete(s.recoveries, sessionKey(c.Clerk, c.Table))
	}
	if c, ok := cmd.(CmdOpenSession); ok {
		// Fresh sessions start with a full lease locally.
		if _, ok := s.renewals[c.Clerk]; !ok {
			s.renewals[c.Clerk] = s.w.Clock.Now()
		}
	}
	s.mu.Unlock()

	if len(gained) > 0 && !s.grp.Down() {
		go s.syncShards(gained)
	}
}

// dropClerkLocked removes a clerk from all lock state (it is dead and
// recovered, or cleanly closed) and regrants what it held.
func (s *Server) dropClerkLocked(clerk, table string) {
	var outs []cast
	for k, ls := range s.locks {
		if k.Table == table && ls.dropClerk(clerk) {
			outs = s.grantLocked(k, ls, outs)
		}
		if ls.idle() {
			delete(s.locks, k)
		}
	}
	go s.send(s.state.Version, outs)
}

// grantLocked runs the lock's grant rule unless its shard's state is
// still being recovered from the clerks.
func (s *Server) grantLocked(k lockKey, ls *lockState, outs []cast) []cast {
	if s.pendingGrp[s.state.ShardOf(k.Lock)] != nil {
		return outs
	}
	return ls.grant(k, s.w.Clock.Now(), s.cfg.RevokeRetry, func(clerk string) bool { return s.sessionDead(clerk, k.Table) }, outs)
}

// send casts what the lock core decided, grants stamped with the state
// version ver they were decided at, and journals and counts each one.
func (s *Server) send(ver int64, outs []cast) {
	for _, o := range outs {
		if o.revoke {
			s.revC.Inc()
			s.jr.Record("lockservice", "revoke", "sent", o.k.Lock, int64(o.mode), o.clerk)
			_ = s.ep.Cast(s.clerkAddr(o.clerk), RevokeMsg{Table: o.k.Table, Lock: o.k.Lock, NewMode: o.mode})
			continue
		}
		s.jr.Record("lockservice", "grant", "sent", o.k.Lock, int64(o.mode), o.clerk)
		_ = s.ep.Cast(s.clerkAddr(o.clerk), GrantMsg{Table: o.k.Table, Lock: o.k.Lock, Mode: o.mode, Ver: ver, Epoch: o.epoch})
	}
}

// sendCasts sends outs, as send does, and gives the list back to the
// spares.
func (s *Server) sendCasts(ver int64, outs []cast) {
	s.send(ver, outs)
	if cap(outs) == 0 {
		return
	}
	clear(outs)
	s.casts.Put(outs[:0])
}

// cpuCost models the protocol-processing time of one inbound message:
// a fixed per-message cost plus a per-lock-operation cost for the
// vectored types (which is what makes batching pay).
func (s *Server) cpuCost(body any) sim.Duration {
	ops := 0
	switch m := body.(type) {
	case *AcquireBatch:
		ops = len(m.Reqs)
	case *ReleaseBatch:
		ops = len(m.Rels)
	case SyncResp:
		ops = len(m.Locks)
	}
	return s.cfg.CPUPerMsg + sim.Duration(ops)*s.cfg.CPUPerOp
}

// handle serves the lock protocol.
func (s *Server) handle(from string, body any) any {
	if s.grp.Down() {
		return nil
	}
	s.cpu.Use(s.cpuCost(body))
	s.reqC.Inc()
	// Lock traffic is batched by the clerk's sender across whatever
	// operations wait on it: it is nobody's in particular.
	s.acct.ServerOp(obs.UnknownPrincipal)
	switch m := body.(type) {
	case *AcquireBatch:
		s.onAcquireBatch(m)
	case *ReleaseBatch:
		s.onReleaseBatch(m)
	case RenewMsg:
		s.renew(m.Clerk, m.LeaseID)
	case RenewalsReq:
		s.mu.Lock()
		times := make(map[string]int64, len(s.renewals))
		for c, t := range s.renewals {
			times[c] = int64(t)
		}
		s.mu.Unlock()
		return RenewalsResp{OK: true, Times: times}
	case OpenReq:
		return s.onOpen(m)
	case CloseReq:
		s.onClose(m)
	case paxos.StateReq:
		s.mu.Lock()
		defer s.mu.Unlock()
		return m.Answer(s.state.Version, func() any { return s.state.Clone() })
	case SyncResp:
		s.onSyncResp(m)
	case RecoveryDone:
		s.onRecoveryDone(m)
	}
	return nil
}

func (s *Server) lock(k lockKey) *lockState {
	ls := s.locks[k]
	if ls == nil {
		ls = newLockState()
		s.locks[k] = ls
	}
	return ls
}

// liveSession returns the clerk's session if it is open and not dead.
// Called with s.mu held.
func (s *Server) liveSession(clerk string) (Session, bool) {
	for _, sess := range s.state.Sessions {
		if sess.Clerk == clerk && !sess.Dead {
			return sess, true
		}
	}
	return Session{}, false
}

// renew records a lease renewal from clerk, carried by a RenewMsg or a
// batch's Renew, and casts a RenewAck back: at most one per clerk every
// renewSpacing, so a clerk streaming batches costs O(1) acks per lease,
// but at once when the session is not live (expired and recovered while
// the clerk stalled), so the zombie learns its fate.
func (s *Server) renew(clerk string, leaseID uint64) {
	now := s.w.Clock.Now()
	s.mu.Lock()
	s.renewals[clerk] = now
	sess, live := s.liveSession(clerk)
	valid := live && sess.LeaseID == leaseID
	ack := !valid || sim.Duration(now-s.ackCast[clerk]) >= renewSpacing(s.cfg.LeaseDuration)
	if ack {
		s.ackCast[clerk] = now
	}
	epoch := s.state.Epoch
	s.mu.Unlock()
	if ack {
		s.ackC.Inc()
		_ = s.ep.Cast(s.clerkAddr(clerk), RenewAck{Server: s.name, LeaseID: leaseID, Valid: valid, MapEpoch: epoch})
	}
}

func (s *Server) onAcquireBatch(m *AcquireBatch) {
	if m.Renew != 0 {
		s.renew(m.Clerk, m.Renew)
	}
	s.onBatch(m.Clerk, m.Table, m.MapEpoch, m.Reqs, nil)
}

func (s *Server) onReleaseBatch(m *ReleaseBatch) {
	if m.Renew != 0 {
		s.renew(m.Clerk, m.Renew)
	}
	s.onBatch(m.Clerk, m.Table, m.MapEpoch, nil, m.Rels)
}

// onBatch serves a vectored request (reqs) or release (rels): every
// lock we own is processed under one state-lock acquisition; locks we
// do NOT own are nacked back in a single WrongShard carrying our map
// epoch, so a clerk that routed with a stale shard map refetches and
// retries against the new owner instead of waiting forever on a silent
// drop — for a release, instead of the new owner believing the clerk
// holds the lock forever.
func (s *Server) onBatch(clerk, table string, mapEpoch int64, reqs []BatchReq, rels []BatchRel) {
	var wrong []uint64
	s.mu.Lock()
	if s.grp.Down() {
		// Crashed during handle's CPU charge, after its Down check:
		// the lock table is gone, and a dead server grants nothing
		// from the empty one.
		s.mu.Unlock()
		return
	}
	outs, _ := s.casts.Take()
	epoch, ver := s.state.Epoch, s.state.Version
	for i := 0; i < len(reqs)+len(rels); i++ {
		var k lockKey
		if i < len(reqs) {
			k = lockKey{table, reqs[i].Lock}
		} else {
			k = lockKey{table, rels[i-len(reqs)].Lock}
		}
		if s.state.ServerFor(k.Lock) != s.name {
			wrong = append(wrong, k.Lock)
			continue
		}
		if ctr := s.shardCounter(s.state.ShardOf(k.Lock)); ctr != nil {
			ctr.Inc()
		}
		ls := s.locks[k]
		if i < len(reqs) {
			ls = s.lock(k)
			outs = ls.acquire(k, clerk, reqs[i].Mode, reqs[i].Epoch, outs)
		} else if ls != nil {
			ls.release(clerk, rels[i-len(reqs)].NewMode)
		} else {
			continue
		}
		outs = s.grantLocked(k, ls, outs)
		if ls.idle() {
			delete(s.locks, k)
		}
	}
	s.mu.Unlock()
	if len(wrong) > 0 {
		s.nackWrongShard(clerk, table, epoch, mapEpoch, wrong)
	}
	s.sendCasts(ver, outs)
}

// nackWrongShard tells a clerk its routing was stale for the listed
// locks, quoting our shard-map epoch.
func (s *Server) nackWrongShard(clerk, table string, epoch, clerkEpoch int64, locks []uint64) {
	s.wrongC.Add(int64(len(locks)))
	for _, lk := range locks {
		s.jr.Record("lockservice", "shard", "wrongshard", lk, epoch,
			fmt.Sprintf("%s routed with epoch %d", clerk, clerkEpoch))
	}
	_ = s.ep.Cast(s.clerkAddr(clerk), WrongShard{Server: s.name, Table: table, Epoch: epoch, Locks: locks})
}

func (s *Server) sessionDead(clerk, table string) bool {
	sess, ok := s.state.Sessions[sessionKey(clerk, table)]
	return ok && sess.Dead
}

// retryRevokes re-emits revokes for locks with blocked waiters, and
// publishes the lock memory model (stats).
func (s *Server) retryRevokes() {
	if s.grp.Down() {
		return
	}
	s.mu.Lock()
	outs, _ := s.casts.Take()
	for k, ls := range s.locks {
		if len(ls.waiters) > 0 {
			outs = s.grantLocked(k, ls, outs)
		}
	}
	ver := s.state.Version
	s.mu.Unlock()
	s.sendCasts(ver, outs)
	s.stats()
}

func (s *Server) onOpen(m OpenReq) OpenResp {
	if err := s.grp.Submit(CmdOpenSession{Clerk: m.Clerk, Table: m.Table, Incarnation: m.Incarnation}); err != nil {
		return OpenResp{Err: err.Error()}
	}
	s.mu.Lock()
	sess, ok := s.state.Sessions[sessionKey(m.Clerk, m.Table)]
	s.renewals[m.Clerk] = s.w.Clock.Now()
	st := s.state.Clone()
	s.mu.Unlock()
	if !ok {
		return OpenResp{Err: "session vanished"}
	}
	if sess.Incarnation != m.Incarnation {
		return OpenResp{Err: ErrPriorSession.Error()}
	}
	return OpenResp{OK: true, LeaseID: sess.LeaseID, LogSlot: sess.LogSlot, State: st}
}

func (s *Server) onClose(m CloseReq) {
	_ = s.grp.Submit(CmdCloseSession{Clerk: m.Clerk, Table: m.Table})
}

// majorityRenewals aggregates the renewal tables of all reachable
// lock servers and returns, per clerk, the k-th freshest renewal
// time with k = majority — mirroring the clerk's own lease rule.
func (s *Server) majorityRenewals() map[string]sim.Time {
	peers := s.grp.Members()
	tables := make([]map[string]int64, 0, len(peers))
	s.mu.Lock()
	own := make(map[string]int64, len(s.renewals))
	for c, t := range s.renewals {
		own[c] = int64(t)
	}
	s.mu.Unlock()
	tables = append(tables, own)
	for _, p := range peers {
		if p == s.name || !s.grp.Alive(p) {
			continue
		}
		resp, err := s.ep.Call(Addr(p), RenewalsReq{}, 5*time.Second)
		if err != nil {
			continue
		}
		if rr, ok := resp.(RenewalsResp); ok && rr.OK {
			tables = append(tables, rr.Times)
		}
	}
	quorum := len(peers)/2 + 1
	if len(tables) < quorum {
		// Not enough evidence: an unreachable lock server is NOT
		// evidence that a clerk stopped renewing. Skip expiry.
		return nil
	}
	out := make(map[string]sim.Time)
	clerks := make(map[string]bool)
	for _, tab := range tables {
		for c := range tab {
			clerks[c] = true
		}
	}
	for c := range clerks {
		var times []int64
		for _, tab := range tables {
			times = append(times, tab[c]) // zero = this server never heard c
		}
		// The quorum-th freshest among the RESPONDING servers: a
		// session expires only when at least a quorum of servers each
		// positively report prolonged silence.
		out[c] = sim.Time(kthNewest(times, quorum))
	}
	return out
}

// sweep runs on every server but acts only on the coordinator: expire
// leases, mark their sessions dead, and drive recovery jobs.
func (s *Server) sweep() {
	if s.grp.Down() || !s.grp.Coordinator() || !s.grp.QuorumAlive() {
		return
	}
	now := s.w.Clock.Now()
	renewed := s.majorityRenewals()
	if renewed == nil {
		return // cannot reach a quorum of renewal tables; judge later
	}
	type expiredSess struct{ clerk, table string }
	var expired []expiredSess
	var jobs []recoveryJob
	s.mu.Lock()
	for key, sess := range s.state.Sessions {
		last, ok := renewed[sess.Clerk]
		if !ok || last == 0 {
			// Never renewed anywhere yet (fresh session after a
			// coordinator change): give it a full window, tracked
			// locally.
			if _, seen := s.renewals[sess.Clerk]; !seen {
				s.renewals[sess.Clerk] = now
			}
			last = s.renewals[sess.Clerk]
		}
		if !sess.Dead && sim.Duration(now-last) > s.cfg.LeaseDuration {
			expired = append(expired, expiredSess{sess.Clerk, sess.Table})
		}
		if sess.Dead {
			job := s.recoveries[key]
			if job == nil {
				job = &recoveryJob{dead: sess.Clerk, table: sess.Table, slot: sess.LogSlot, lease: sess.LeaseID}
				s.recoveries[key] = job
			}
			// (Re)assign a recoverer if missing or itself expired.
			rl := renewed[job.recoverer]
			stale := rl == 0 || sim.Duration(now-rl) > s.cfg.LeaseDuration
			if job.recoverer == "" || stale || sim.Duration(now-job.lastSent) > 4*s.cfg.SweepEvery {
				if r := s.pickRecoverer(sess, renewed, now); r != "" {
					if r != job.recoverer {
						s.nextSeq++
						job.seq = s.nextSeq
						job.recoverer = r
					}
					job.lastSent = now
					jobs = append(jobs, *job)
				}
			}
		}
	}
	s.mu.Unlock()

	for _, e := range expired {
		s.jr.Record("lockservice", "lease", "expire", 0, 0, e.clerk+"/"+e.table)
		_ = s.grp.Submit(CmdMarkDead{Clerk: e.clerk, Table: e.table})
	}
	for _, j := range jobs {
		s.jr.Record("lockservice", "recovery", "assign", 0, int64(j.slot), j.dead+" by "+j.recoverer)
		_ = s.ep.Cast(s.clerkAddr(j.recoverer), RecoverReq{
			Server: s.name, Table: j.table, Dead: j.dead, DeadSlot: j.slot, LeaseID: j.lease, Seq: j.seq,
		})
	}
}

// pickRecoverer chooses a live clerk of the same table, judged by
// the majority renewal view. Called with s.mu held.
func (s *Server) pickRecoverer(dead Session, renewed map[string]sim.Time, now sim.Time) string {
	best := ""
	var bestSeen sim.Time
	for _, sess := range s.state.Sessions {
		if sess.Table != dead.Table || sess.Dead || sess.Clerk == dead.Clerk {
			continue
		}
		seen := renewed[sess.Clerk]
		if seen == 0 || sim.Duration(now-seen) > s.cfg.LeaseDuration {
			continue
		}
		if best == "" || seen > bestSeen {
			best, bestSeen = sess.Clerk, seen
		}
	}
	return best
}

func (s *Server) onRecoveryDone(m RecoveryDone) {
	s.mu.Lock()
	key := sessionKey(m.Dead, m.Table)
	job := s.recoveries[key]
	valid := job != nil && job.seq == m.Seq
	s.mu.Unlock()
	if !valid {
		return
	}
	s.jr.Record("lockservice", "recovery", "closed", 0, 0, m.Dead)
	_ = s.grp.Submit(CmdCloseSession{Clerk: m.Dead, Table: m.Table})
}

// syncShards reconstructs gained shards' lock state from the clerks
// (phase two of reassignment): "lock servers that gain locks contact
// the clerks that have the relevant lock tables open. The servers
// recover the state of their new locks from the clerks."
func (s *Server) syncShards(shards []int) {
	s.mu.Lock()
	s.nextSeq++
	seq := s.nextSeq
	gs := &shardSync{seq: seq, shards: shards, waiting: make(map[string]bool)}
	var live []Session
	for _, sess := range s.state.Sessions {
		if !sess.Dead {
			gs.waiting[sess.Clerk] = true
			live = append(live, sess)
		}
	}
	for _, sh := range shards {
		s.pendingGrp[sh] = gs
	}
	ver := s.state.Version
	nshards := s.state.Shards
	s.jr.Record("lockservice", "handoff", "begin", 0, int64(len(shards)),
		fmt.Sprintf("shards %v seq %d, syncing %d clerks", shards, seq, len(live)))
	s.mu.Unlock()

	for _, sess := range live {
		_ = s.ep.Cast(s.clerkAddr(sess.Clerk), SyncReq{Server: s.name, Table: sess.Table, Shards: shards, NumShards: nshards, Seq: seq, Ver: ver})
	}
	if len(live) == 0 {
		s.finishSync(seq)
	}
	// Laggards are re-asked by the syncRetry ticker; the shards stay
	// pending (no grants) until every live clerk has answered or its
	// session has died.
}

// syncRetry re-sends SyncReqs for pending shards and prunes clerks
// whose sessions are gone.
func (s *Server) syncRetry() {
	if s.grp.Down() {
		return
	}
	s.mu.Lock()
	type ask struct {
		clerk  string
		table  string
		shards []int
		seq    uint64
		ver    int64
	}
	var asks []ask
	var finished []uint64
	seen := make(map[uint64]bool)
	nshards := s.state.Shards
	for _, gs := range s.pendingGrp {
		if seen[gs.seq] {
			continue
		}
		seen[gs.seq] = true
		for clerk := range gs.waiting {
			sess, alive := s.liveSession(clerk)
			if !alive {
				delete(gs.waiting, clerk)
				continue
			}
			asks = append(asks, ask{clerk, sess.Table, gs.shards, gs.seq, s.state.Version})
		}
		if len(gs.waiting) == 0 {
			finished = append(finished, gs.seq)
		}
	}
	s.mu.Unlock()
	for _, a := range asks {
		_ = s.ep.Cast(s.clerkAddr(a.clerk), SyncReq{Server: s.name, Table: a.table, Shards: a.shards, NumShards: nshards, Seq: a.seq, Ver: a.ver})
	}
	for _, seq := range finished {
		s.finishSync(seq)
	}
}

func (s *Server) onSyncResp(m SyncResp) {
	s.mu.Lock()
	var gs *shardSync
	for _, p := range s.pendingGrp {
		if p.seq == m.Seq {
			gs = p
			break
		}
	}
	if gs == nil || !gs.waiting[m.Clerk] {
		s.mu.Unlock()
		return
	}
	delete(gs.waiting, m.Clerk)
	// The table comes from the session, dead or alive: a clerk that
	// died since it was asked still holds what it reports until its
	// recovery releases it.
	table := ""
	for _, sess := range s.state.Sessions {
		if sess.Clerk == m.Clerk {
			table = sess.Table
			break
		}
	}
	for _, h := range m.Locks {
		if table == "" {
			break
		}
		s.lock(lockKey{table, h.Lock}).adopt(m.Clerk, h.Mode)
	}
	done := len(gs.waiting) == 0
	s.mu.Unlock()
	if done {
		s.finishSync(m.Seq)
	}
}

// finishSync marks shards with the given sync sequence ready and
// kicks granting.
func (s *Server) finishSync(seq uint64) {
	s.mu.Lock()
	var ready []int
	for sh, p := range s.pendingGrp {
		if p.seq == seq {
			ready = append(ready, sh)
		}
	}
	for _, sh := range ready {
		delete(s.pendingGrp, sh)
	}
	var outs []cast
	if len(ready) > 0 {
		s.jr.Record("lockservice", "handoff", "end", 0, int64(len(ready)),
			fmt.Sprintf("shards %v recovered, granting resumes", ready))
		for k, ls := range s.locks {
			if slices.Contains(ready, s.state.ShardOf(k.Lock)) {
				outs = s.grantLocked(k, ls, outs)
			}
		}
	}
	ver := s.state.Version
	s.mu.Unlock()
	s.send(ver, outs)
}

// stats reports the paper's lock memory model applied to this
// server's current state, and sets the lockservice.server.{locks,bytes}
// gauges to it: the revoke-retry tick every server runs calls it.
func (s *Server) stats() (locks int, bytes int64) {
	s.mu.Lock()
	for _, ls := range s.locks {
		locks++
		bytes += ServerBytesPerLock
		bytes += int64((len(ls.holders) + len(ls.waiters))) * ServerBytesPerClerk
	}
	s.mu.Unlock()
	s.locksG.Set(int64(locks))
	s.memBytes.Set(bytes)
	return locks, bytes
}
