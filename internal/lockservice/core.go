package lockservice

import "frangipani/internal/sim"

// The lock protocol's per-lock rules, one side each, as transitions on
// the lock's own state, and the clerk's lease: every method takes what it
// reads from outside (the time, the server's revoke interval, which
// clerks are dead) as arguments and returns what must be sent. Nothing
// here locks, sleeps, sends or records; Clerk and Server hold their
// mutex, call these and do the I/O, and the explorer in explore_test.go
// drives the lock rules through every interleaving of two clerks.
// DESIGN §3.5 has the transition tables.

// ---- server side ----

type waiter struct {
	clerk string
	mode  Mode
	epoch int64
}

// lockState is the volatile per-lock state on its serving lock
// server. It is reconstructed from clerks after reassignment.
type lockState struct {
	holders map[string]Mode // clerk -> Shared/Exclusive
	waiters []waiter        // FIFO; popWaiter keeps its room
	// revoked says the head conflict's revokes went out at lastRevoke,
	// so only RevokeRetry later are they due again. Clear (as on a new
	// lock, a new waiter, a changed holder set) means revoke at once.
	revoked    bool
	lastRevoke sim.Time
}

// lockKey names one lock.
type lockKey struct {
	Table string
	Lock  uint64
}

// cast is one message the server core asks its shell to send to a
// clerk about lock k: a GrantMsg of mode answering the request of
// epoch, or a RevokeMsg down to mode.
type cast struct {
	clerk  string
	k      lockKey
	revoke bool
	mode   Mode
	epoch  int64
}

func newLockState() *lockState { return &lockState{holders: make(map[string]Mode)} }

// acquire takes a request. A retransmission refreshes the clerk's
// place in the queue; a clerk that already holds what it asks for lost
// a grant and is sent it again; anyone else joins the queue, and a new
// conflict is revoked at once, not at the retransmit interval.
func (ls *lockState) acquire(k lockKey, clerk string, mode Mode, epoch int64, out []cast) []cast {
	for i := range ls.waiters {
		if w := &ls.waiters[i]; w.clerk == clerk {
			w.mode = mode
			w.epoch = max(w.epoch, epoch)
			return out
		}
	}
	if held, ok := ls.holders[clerk]; ok && held >= mode {
		return append(out, cast{clerk: clerk, k: k, mode: held, epoch: epoch})
	}
	ls.waiters = append(ls.waiters, waiter{clerk, mode, epoch})
	ls.revoked = false
	return out
}

// release takes a release or downgrade; a changed holder set is
// revoked for at once if a conflict persists.
func (ls *lockState) release(clerk string, to Mode) {
	if to == None {
		delete(ls.holders, clerk)
	} else if _, ok := ls.holders[clerk]; ok {
		ls.holders[clerk] = to
	}
	ls.revoked = false
}

// dropClerk forgets a clerk that closed or died and was recovered. It
// reports whether the lock changed, so that the caller grants again.
func (ls *lockState) dropClerk(clerk string) bool {
	_, changed := ls.holders[clerk]
	delete(ls.holders, clerk)
	for i, w := range ls.waiters {
		if w.clerk == clerk {
			ls.dropWaiter(i)
			return true
		}
	}
	return changed
}

// adopt records a hold a clerk reported to a server that took the
// lock's shard over.
func (ls *lockState) adopt(clerk string, mode Mode) { ls.holders[clerk] = mode }

// idle reports that nobody holds or waits for the lock.
func (ls *lockState) idle() bool { return len(ls.holders) == 0 && len(ls.waiters) == 0 }

// grant grants as many head waiters as compatibility allows (strict
// FIFO for fairness: "Our distributed lock manager has been designed
// to be fair in granting locks") and revokes the holders blocking the
// head waiter, no more often than every retry. Dead clerks are skipped:
// their waits are dropped and their holds stay frozen until recovery
// releases them.
func (ls *lockState) grant(k lockKey, now sim.Time, retry sim.Duration, dead func(clerk string) bool, out []cast) []cast {
	for len(ls.waiters) > 0 {
		w := ls.waiters[0]
		if dead(w.clerk) {
			ls.popWaiter()
			continue
		}
		if !ls.compatible(w) {
			break
		}
		ls.holders[w.clerk] = w.mode
		ls.popWaiter()
		out = append(out, cast{clerk: w.clerk, k: k, mode: w.mode, epoch: w.epoch})
	}
	if len(ls.waiters) == 0 || ls.revoked && sim.Duration(now-ls.lastRevoke) < retry {
		return out
	}
	ls.revoked, ls.lastRevoke = true, now
	w := ls.waiters[0]
	for clerk, mode := range ls.holders {
		if clerk == w.clerk || dead(clerk) || w.mode == Shared && mode == Shared {
			continue
		}
		to := None
		if w.mode == Shared {
			to = Shared // a downgrade suffices
		}
		out = append(out, cast{clerk: clerk, k: k, revoke: true, mode: to})
	}
	return out
}

// popWaiter drops the head of the queue.
func (ls *lockState) popWaiter() { ls.dropWaiter(0) }

// dropWaiter drops waiter i. The ones behind it move up, so the queue
// keeps its room and the next waiter joins it without an allocation.
func (ls *lockState) dropWaiter(i int) {
	n := len(ls.waiters) - 1
	copy(ls.waiters[i:], ls.waiters[i+1:])
	ls.waiters[n] = waiter{}
	ls.waiters = ls.waiters[:n]
}

func (ls *lockState) compatible(w waiter) bool {
	for clerk, mode := range ls.holders {
		if clerk != w.clerk && (mode == Exclusive || w.mode == Exclusive) {
			return false
		}
	}
	return true
}

// ---- clerk side ----

// clkLock is the clerk-side state of one lock.
type clkLock struct {
	mode          Mode // granted mode
	wanted        Mode // highest mode local waiters need
	users         int  // FS operations currently inside the lock
	revokePending bool
	revokeTo      Mode
	revoking      bool // flush callback in flight
	lastReq       sim.Time
	lastReqMode   Mode // mode of the last transmitted request
	lastUsed      sim.Time
	// epoch advances on every release/downgrade; grants echoing an
	// older epoch answered a request from a previous tenancy of this
	// lock and must be ignored.
	epoch int64
	// waiters counts the callers blocked in lockWait by the mode they
	// asked for. A grant wakes them through the condition variable; owed
	// marks a revoke that arrived before any of them had run, and lets
	// one of them in ahead of it (see revoke).
	waiters [Exclusive + 1]int
	owed    bool
}

// clerkAct names what a clerk-side transition asks of its shell. It is
// a value, not a slice or a closure, so the sticky path allocates
// nothing.
type clerkAct struct {
	do    uint8
	mode  Mode  // actRequest: the mode asked for; actRelease: the mode kept
	epoch int64 // actRequest: the tenancy asking
}

const (
	actRequest uint8 = 1 << iota // enqueue a request for mode at epoch
	actRelease                   // enqueue a release down to mode
	actFlush                     // start the flush (the onRevoke callback)
	actWake                      // wake the callers blocked in lockWait
	actForget                    // drop the entry: released and long idle
	actTaken                     // a grant or revoke was taken on: journal it
)

func (a clerkAct) has(bit uint8) bool { return a.do&bit != 0 }

// admit lets a caller in if the grant covers mode and no revoke stands
// in the way — except an owed one, which a caller blocked in lockWait
// (waiting) may go ahead of once.
func (l *clkLock) admit(mode Mode, now sim.Time, waiting bool) bool {
	if l.mode < mode || l.revoking || l.revokePending && !(waiting && l.owed) {
		return false
	}
	l.owed = false
	l.users++
	l.lastUsed = now
	return true
}

// want records that a caller needs mode and asks the server for it,
// at most every retry/2 for the same mode. While a revoke is pending or
// in flight no request may leave: one racing ahead of our release would
// have the server re-grant from stale holder state.
func (l *clkLock) want(mode Mode, now sim.Time, retry sim.Duration) clerkAct {
	l.wanted = max(l.wanted, mode)
	if l.revokePending || l.revoking {
		return clerkAct{}
	}
	return l.request(now, retry)
}

// request asks for the wanted mode — always the first time
// (lastReq == 0) and for an upgrade; a retransmission only every
// retry/2. A zero retry forces it through.
func (l *clkLock) request(now sim.Time, retry sim.Duration) clerkAct {
	if l.lastReq != 0 && l.wanted <= l.lastReqMode && sim.Duration(now-l.lastReq) < retry/2 {
		return clerkAct{}
	}
	l.lastReq, l.lastReqMode = now, l.wanted
	return clerkAct{do: actRequest, mode: l.wanted, epoch: l.epoch}
}

// requestable reports a want the grant does not cover and that no
// revoke holds back: the one state in which a request may leave, so the
// sender checks it again when it drains a queued one.
func (l *clkLock) requestable() bool {
	return l.wanted > l.mode && !l.revokePending && !l.revoking
}

// settled reports that the clerk neither wants more nor is giving
// anything back: the one state in which it may tell the server what it
// holds unasked, since no request or release of its own can be in
// flight for the message to overtake.
func (l *clkLock) settled() bool {
	return l.wanted <= l.mode && !l.revokePending && !l.revoking
}

// redrive re-drives the lock after a message about it was misrouted:
// the want is requested past the rate limit, or a settled hold is
// reported again so that a release the server never saw is not lost.
func (l *clkLock) redrive(now sim.Time) clerkAct {
	switch {
	case l.requestable():
		return l.request(now, 0)
	case l.settled():
		return clerkAct{do: actRelease, mode: l.mode}
	}
	return clerkAct{}
}

// unlock ends one caller's use; the last one out starts a pending
// revoke's flush.
func (l *clkLock) unlock() clerkAct {
	if l.users == 0 {
		return clerkAct{}
	}
	l.users--
	if l.users == 0 && l.revokePending && !l.revoking {
		l.revoking = true
		return clerkAct{do: actFlush}
	}
	return clerkAct{}
}

// grant takes a grant of mode answering the request of epoch (0: any).
// One answering a previous tenancy is void, and so is one crossing our
// release: the release corrects the server and the want is asked for
// again after it.
func (l *clkLock) grant(mode Mode, epoch int64) clerkAct {
	if epoch != 0 && epoch != l.epoch || l.revokePending || l.revoking {
		return clerkAct{}
	}
	l.mode = max(l.mode, mode)
	return clerkAct{do: actWake | actTaken}
}

// revoke takes a revoke down to mode. A clerk already there refreshes
// the server's view in case its release was lost, if settled. A
// stronger revoke than the pending one narrows it. A grant is used
// once before it is given back: when nobody is inside but a caller the
// grant woke has not run yet, that caller goes in ahead of the revoke
// (owed) and its unlock starts the flush — otherwise two clerks that
// both want the lock hand it back and forth with neither using it,
// each grant arriving with the revoke the other's next request caused
// right behind it.
func (l *clkLock) revoke(to Mode) clerkAct {
	if l.mode <= to {
		if l.settled() {
			return clerkAct{do: actRelease, mode: l.mode}
		}
		return clerkAct{}
	}
	if l.revokePending && l.revokeTo <= to {
		return clerkAct{} // already working on an equal-or-stronger revoke
	}
	l.revokePending = true
	if !l.revoking || to < l.revokeTo {
		l.revokeTo = to
	}
	l.owed = l.users == 0 && !l.revoking && l.wakingWaiter()
	if l.users == 0 && !l.revoking && !l.owed {
		l.revoking = true
		return clerkAct{do: actFlush | actTaken}
	}
	return clerkAct{do: actTaken}
}

// wakingWaiter reports whether a caller blocked in lockWait could use
// the lock as it is granted now. With no revoke pending such a caller
// has been woken and has not yet run: it would be a user otherwise.
func (l *clkLock) wakingWaiter() bool {
	for m := Shared; m <= l.mode; m++ {
		if l.waiters[m] > 0 {
			return true
		}
	}
	return false
}

// flushed completes a flush towards target: the lock drops to it and a
// new tenancy, epoch, begins — grants answering requests from before
// are void, the rate limiter must not throttle its first request, and
// local waiters re-establish their wants. The release is enqueued in
// the same hold of the clerk's mutex that clears revoking, so no
// request of ours can overtake it in the sender's FIFO. A revoke that
// narrowed the target meanwhile is flushed for next.
func (l *clkLock) flushed(target Mode, epoch int64) clerkAct {
	l.mode, l.wanted, l.epoch = target, None, epoch
	l.lastReq, l.lastReqMode = 0, None
	a := clerkAct{do: actRelease | actWake, mode: target}
	if l.revokeTo < target {
		a.do |= actFlush
	} else {
		l.revokePending, l.revoking = false, false
	}
	return a
}

// idle gives back a sticky grant unused for longer than after (§6:
// bounding lock memory) through the revoke path, so covered dirty data
// is flushed first, and forgets an entry that holds nothing.
func (l *clkLock) idle(now sim.Time, after sim.Duration) clerkAct {
	if l.users > 0 || !l.settled() || l.waiters != [Exclusive + 1]int{} || sim.Duration(now-l.lastUsed) <= after {
		return clerkAct{}
	}
	if l.mode == None {
		return clerkAct{do: actForget}
	}
	l.revokePending, l.revokeTo, l.revoking = true, None, true
	return clerkAct{do: actFlush}
}

// ---- clerk lease ----

// The renewal schedule, every interval a fraction of the lease duration
// d. A tick every d/3 renews each server whose ack is older than d/6, so
// an idle clerk's acks are about d/3 old at worst and the lease keeps the
// paper's d/2 margin (§6: a 30 s lease checked 15 s ahead). A batch to a
// server carries a renewal d/12 after the last one a batch carried there,
// and a server acks a clerk at most every d/12, so a busy clerk's acks
// stay younger than d/6 and its ticks send nothing.
func renewTick(d sim.Duration) sim.Duration    { return d / 3 }
func ackFresh(d sim.Duration) sim.Duration     { return d / 6 }
func renewSpacing(d sim.Duration) sim.Duration { return d / 12 }

// leaseVerdict is what a renewal tick concludes.
type leaseVerdict uint8

const (
	leaseHeld     leaseVerdict = iota
	leaseDisowned              // a majority of servers knows no live session for it
	leaseExpired               // the last tick's renewals did not bring it back
)

// lease is a clerk's view of its lease, one slot per lock server: when
// the server's last valid RenewAck arrived, when a batch last carried it
// a renewal, and whether its last ack disowned the session. The lease
// runs to the newest time by which a majority had acked, plus the
// duration.
type lease struct {
	dur      sim.Duration
	servers  []string
	acked    []sim.Time
	sent     []sim.Time
	disowned []bool
	ticked   sim.Time // the previous tick
	// times is expiresAt's scratch: the lease is checked before every
	// Petal write.
	times []int64
}

func newLease(servers []string, dur sim.Duration) lease {
	n := len(servers)
	return lease{dur: dur, servers: servers, acked: make([]sim.Time, n), sent: make([]sim.Time, n),
		disowned: make([]bool, n), times: make([]int64, n)}
}

func (l *lease) slot(server string) int {
	for i, s := range l.servers {
		if s == server {
			return i
		}
	}
	return -1
}

// ack takes a server's RenewAck. A valid one renews its slot and clears
// its disown mark; an invalid one — the session expired and was
// recovered while the clerk stalled — marks it and leaves the slot to
// age.
func (l *lease) ack(server string, valid bool, now sim.Time) {
	if i := l.slot(server); i >= 0 {
		l.disowned[i] = !valid
		if valid {
			l.acked[i] = now
		}
	}
}

// carry reports whether a batch to server carries a renewal, and notes
// it if so.
func (l *lease) carry(server string, now sim.Time) bool {
	i := l.slot(server)
	if i < 0 || sim.Duration(now-l.sent[i]) < renewSpacing(l.dur) {
		return false
	}
	l.sent[i] = now
	return true
}

// tick judges the lease and picks the servers to renew. A majority
// disowning the session ends it at once. An expired lease ends when the
// previous tick's renewals have had their chance: it had expired by
// then and no majority has acked since. Otherwise every server whose ack
// is older than ackFresh is renewed — unless a majority's is fresher:
// expiry is the majority-rank ack, so a stale minority can wait for
// batch traffic to reach it.
func (l *lease) tick(now sim.Time) (renew []string, v leaseVerdict) {
	disowned := 0
	for i, s := range l.servers {
		if l.disowned[i] {
			disowned++
		}
		if sim.Duration(now-l.acked[i]) >= ackFresh(l.dur) {
			renew = append(renew, s)
		}
	}
	majority := len(l.servers)/2 + 1
	prev := l.ticked
	l.ticked = now
	switch {
	case disowned >= majority:
		return nil, leaseDisowned
	case l.expiresAt() <= int64(prev):
		return nil, leaseExpired
	case len(l.servers)-len(renew) >= majority:
		return nil, leaseHeld
	}
	return renew, leaseHeld
}

// expiresAt is when the lease lapses (ns): the newest time by which a
// majority had acked, plus the duration.
func (l *lease) expiresAt() int64 {
	for i, t := range l.acked {
		l.times[i] = int64(t)
	}
	return kthNewest(l.times, len(l.times)/2+1) + int64(l.dur)
}
