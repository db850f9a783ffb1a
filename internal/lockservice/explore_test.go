package lockservice

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"frangipani/internal/sim"
)

// The explorer: two clerks, two locks and one lock server, driven only
// through the core's transitions and a model of what the shells do with
// their results (each step below names the shell function it stands
// for), over every interleaving: any user may lock, retry once woken or
// unlock, any flush may finish, any clerk's sender may drain its queue,
// the head of any link may be delivered — or delivered and kept for a
// second delivery, a budget of dups times a run — and, a budget of
// ticks times a run, a request or revoke retry may fire. Each link is
// FIFO, as the simulated network and TCP are: the clerk's "release
// before the next tenancy's request" rule rests on it. Each clerk has
// one user per lock, which takes the lock uses times, choosing Shared or
// Exclusive afresh each time, so every combination of modes is explored.
// In every reachable state:
//
//	(i)   no two users are inside one lock in incompatible modes, and
//	      the server never records incompatible holders;
//	(ii)  a grant that satisfies a blocked user is used by that user
//	      before the lock's flush starts;
//	(iii) once nothing is in flight, queued, flushing or blocked, the
//	      server's holders are the clerks' modes.
//
// All three are per lock, and the locks meet only in the sender's
// batches, the links' order and the clerk's one condition variable: the
// two-lock run covers those, and the runs that duplicate, retry and
// re-acquire do so on one lock, where they cost a sixth of the states.
//
// Time stands still at xNow except where a retry tick says an interval
// has passed: a revoke retry finds the last revoke a full interval old,
// a request retry goes past the rate limit as Clerk.retryRequests does.

const (
	xClerks = 2
	xLocks  = 2
	xBound  = 2         // messages per link, and ops per sender queue
	xStates = 2_000_000 // a run that reaches more fails rather than eat the host's memory
	xRetry  = sim.Duration(2 * time.Second)
	xNow    = sim.Time(xRetry)
)

var xNames = [xClerks]string{"c0", "c1"}

func xClerkOf(name string) int { return slices.Index(xNames[:], name) }

const (
	xIdle int8 = iota
	xBlocked
	xInside
)

// xBatch is a ReleaseBatch (rels) or an AcquireBatch (reqs) in flight.
type xBatch struct {
	rels []BatchRel
	reqs []BatchReq
	dup  bool // a second delivery, which is not repeated again
}

type xCast struct {
	cast
	dup bool
}

type xUser struct {
	at    int8 // xIdle, xBlocked, xInside
	mode  Mode
	uses  int8 // acquisitions left
	woken bool // blocked, and a broadcast has woken it since
}

type xClerk struct {
	locks    [xLocks]clkLock
	user     [xLocks]xUser
	flush    [xLocks]int8 // 0 none, 1+m: the callback runs towards m
	unused   [xLocks]bool // a grant satisfied the blocked user, who has not run yet
	outq     []sendOp
	epochGen int64
}

type xState struct {
	ticks int8 // retry ticks left
	dups  int8 // second deliveries left
	c     [xClerks]*xClerk
	srv   [xLocks]*lockState
	up    [xClerks][]xBatch // clerk -> server
	down  [xClerks][]xCast  // server -> clerk
}

// copyOf makes s a copy of from that shares what a successor replaces
// rather than changes: the link slices are clipped, so an append copies
// them, and an event copies the clerk (own) or the server's lock
// (ownLock) it changes.
func (s *xState) copyOf(from *xState) {
	*s = *from
	for c := range s.c {
		s.up[c] = slices.Clip(s.up[c])
		s.down[c] = slices.Clip(s.down[c])
	}
}

func (s *xState) own(c int) *xClerk {
	cl := *s.c[c]
	cl.outq = slices.Clip(cl.outq)
	s.c[c] = &cl
	return &cl
}

func (s *xState) ownLock(x uint64) *lockState {
	ls := *s.srv[x]
	ls.holders = make(map[string]Mode, len(ls.holders))
	for k, v := range s.srv[x].holders {
		ls.holders[k] = v
	}
	ls.waiters = slices.Clone(ls.waiters)
	s.srv[x] = &ls
	return &ls
}

type xKind uint8

const (
	evLock xKind = iota
	evRetry
	evUnlock
	evFlushDone
	evDrain
	evUp
	evDown
	evClerkTick
	evServerTick
)

type xEvent struct {
	kind xKind
	c, x uint8
	mode Mode // evLock
	dup  bool // evUp/evDown: deliver and keep a copy at the head
}

func (e xEvent) String() string {
	switch e.kind {
	case evLock:
		return fmt.Sprintf("c%d user calls Lock(%d, %v)", e.c, e.x, e.mode)
	case evRetry:
		return fmt.Sprintf("c%d user blocked on lock %d runs", e.c, e.x)
	case evUnlock:
		return fmt.Sprintf("c%d user calls Unlock(%d)", e.c, e.x)
	case evFlushDone:
		return fmt.Sprintf("c%d flush of lock %d done", e.c, e.x)
	case evDrain:
		return fmt.Sprintf("c%d sender drains", e.c)
	case evUp:
		return fmt.Sprintf("server receives c%d's batch (duplicated: %v)", e.c, e.dup)
	case evDown:
		return fmt.Sprintf("c%d receives (duplicated: %v)", e.c, e.dup)
	case evClerkTick:
		return fmt.Sprintf("c%d retry tick for lock %d", e.c, e.x)
	}
	return fmt.Sprintf("server retry tick for lock %d", e.x)
}

type explorer struct {
	uses  [xLocks]int8 // acquisitions per user of each lock
	ticks int8         // retry ticks per run
	dups  int8         // messages delivered twice per run

	pruned int // successors cut off by xBound
}

func (e *explorer) initial() *xState {
	s := &xState{ticks: e.ticks, dups: e.dups}
	for c := range s.c {
		s.c[c] = new(xClerk)
		for x := range s.c[c].locks {
			s.c[c].epochGen++
			s.c[c].locks[x].epoch = s.c[c].epochGen
			s.c[c].user[x].uses = e.uses[x]
		}
	}
	for x := range s.srv {
		s.srv[x] = newLockState()
	}
	return s
}

// events lists what may happen next in s.
func (e *explorer) events(s *xState, evs []xEvent) []xEvent {
	for c, cl := range s.c {
		for x := range cl.locks {
			ev := xEvent{c: uint8(c), x: uint8(x)}
			switch u := cl.user[x]; {
			case u.at == xIdle && u.uses > 0:
				ev.kind = evLock
				ev.mode = Shared
				evs = append(evs, ev)
				ev.mode = Exclusive
				evs = append(evs, ev)
			case u.at == xBlocked && u.woken:
				ev.kind = evRetry
				evs = append(evs, ev)
			case u.at == xInside:
				ev.kind = evUnlock
				evs = append(evs, ev)
			}
			if cl.flush[x] > 0 {
				evs = append(evs, xEvent{kind: evFlushDone, c: uint8(c), x: uint8(x)})
			}
			if s.ticks > 0 && cl.locks[x].requestable() {
				evs = append(evs, xEvent{kind: evClerkTick, c: uint8(c), x: uint8(x)})
			}
		}
		if len(cl.outq) > 0 {
			evs = append(evs, xEvent{kind: evDrain, c: uint8(c)})
		}
		if len(s.up[c]) > 0 {
			evs = append(evs, xEvent{kind: evUp, c: uint8(c)})
			if s.dups > 0 && !s.up[c][0].dup {
				evs = append(evs, xEvent{kind: evUp, c: uint8(c), dup: true})
			}
		}
		if len(s.down[c]) > 0 {
			evs = append(evs, xEvent{kind: evDown, c: uint8(c)})
			if s.dups > 0 && !s.down[c][0].dup {
				evs = append(evs, xEvent{kind: evDown, c: uint8(c), dup: true})
			}
		}
	}
	for x, ls := range s.srv {
		if s.ticks > 0 && len(ls.waiters) > 0 {
			evs = append(evs, xEvent{kind: evServerTick, x: uint8(x)})
		}
	}
	return evs
}

// step makes n the state after ev in s, or returns a violated property.
func (e *explorer) step(n, s *xState, ev xEvent) error {
	n.copyOf(s)
	c, x := int(ev.c), int(ev.x)
	var cl *xClerk
	if ev.kind != evUp && ev.kind != evServerTick {
		cl = n.own(c)
	}
	var err error
	switch ev.kind {
	case evUnlock:
		err = e.apply(n, c, x, cl.locks[x].unlock())
		cl.user[x].at = xIdle
	case evLock, evRetry: // lockWait's loop, once round
		l, u := &cl.locks[x], &cl.user[x]
		if ev.kind == evLock {
			u.mode, u.uses = ev.mode, u.uses-1
		} else {
			l.waiters[u.mode]--
		}
		if l.admit(u.mode, xNow, true) {
			l.lastUsed = 0
			u.at, cl.unused[x] = xInside, false
			break
		}
		err = e.apply(n, c, x, l.want(u.mode, xNow, xRetry))
		l.waiters[u.mode]++
		u.at, u.woken = xBlocked, false
	case evFlushDone:
		target := Mode(cl.flush[x] - 1)
		cl.flush[x] = 0
		cl.epochGen++
		err = e.apply(n, c, x, cl.locks[x].flushed(target, cl.epochGen))
	case evDrain: // flushLocked: releases first, then the revalidated requests
		var b xBatch
		for _, op := range cl.outq {
			l := &cl.locks[op.lock]
			if op.release {
				b.rels = append(b.rels, BatchRel{Lock: op.lock, NewMode: op.mode})
			} else if l.epoch == op.epoch && l.requestable() {
				b.reqs = append(b.reqs, BatchReq{Lock: op.lock, Mode: l.wanted, Epoch: l.epoch})
			}
		}
		cl.outq = nil
		if b.rels != nil {
			n.up[c] = append(n.up[c], xBatch{rels: b.rels})
		}
		if b.reqs != nil {
			n.up[c] = append(n.up[c], xBatch{reqs: b.reqs})
		}
	case evUp: // Server.onBatch
		b := n.up[c][0]
		if ev.dup {
			n.up[c] = slices.Clone(n.up[c])
			n.up[c][0].dup, n.dups = true, n.dups-1
		} else {
			n.up[c] = n.up[c][1:]
		}
		var outs []cast
		for _, r := range b.rels {
			n.ownLock(r.Lock).release(xNames[c], r.NewMode)
			outs = e.grant(n, int(r.Lock), outs)
		}
		for _, r := range b.reqs {
			k := lockKey{"fs", r.Lock}
			outs = n.ownLock(r.Lock).acquire(k, xNames[c], r.Mode, r.Epoch, outs)
			outs = e.grant(n, int(r.Lock), outs)
		}
		e.send(n, outs)
	case evDown: // Clerk.onGrant, Clerk.onRevokeMsg
		m := n.down[c][0]
		if ev.dup {
			n.down[c] = slices.Clone(n.down[c])
			n.down[c][0].dup, n.dups = true, n.dups-1
		} else {
			n.down[c] = n.down[c][1:]
		}
		x = int(m.k.Lock)
		l := &cl.locks[x]
		if m.revoke {
			err = e.apply(n, c, x, l.revoke(m.mode))
			break
		}
		a := l.grant(m.mode, m.epoch)
		if u := cl.user[x]; a.has(actTaken) && u.at == xBlocked && u.mode <= l.mode {
			cl.unused[x] = true
		}
		err = e.apply(n, c, x, a)
	case evClerkTick: // Clerk.retryRequests
		n.ticks--
		err = e.apply(n, c, x, cl.locks[x].request(xNow, 0))
	case evServerTick: // Server.retryRevokes, an interval after the last revoke
		n.ticks--
		n.ownLock(uint64(x)).lastRevoke = 0
		e.send(n, e.grant(n, x, nil))
	}
	if err != nil {
		return err
	}
	return e.check(n)
}

// grant is Server.grantLocked; an idle lock is dropped (made afresh).
func (e *explorer) grant(s *xState, x int, outs []cast) []cast {
	ls := s.srv[x]
	outs = ls.grant(lockKey{"fs", uint64(x)}, xNow, xRetry, func(string) bool { return false }, outs)
	if ls.idle() {
		s.srv[x] = newLockState()
	}
	return outs
}

func (e *explorer) send(s *xState, outs []cast) {
	for _, o := range outs {
		c := xClerkOf(o.clerk)
		s.down[c] = append(s.down[c], xCast{o, false})
	}
}

// apply is Clerk.apply.
func (e *explorer) apply(s *xState, c, x int, a clerkAct) error {
	cl := s.c[c] // owned by the step
	if a.has(actRequest) {
		cl.outq = append(cl.outq, sendOp{lock: uint64(x), mode: a.mode, epoch: a.epoch})
	}
	if a.has(actRelease) {
		cl.outq = append(cl.outq, sendOp{release: true, lock: uint64(x), mode: a.mode})
	}
	if a.has(actFlush) {
		if cl.unused[x] {
			return fmt.Errorf("(ii) c%d starts the flush of lock %d before its blocked user used the grant", c, x)
		}
		cl.flush[x] = 1 + int8(cl.locks[x].revokeTo) // processRevoke reads its target
	}
	if a.has(actWake) { // c.cond is the clerk's: every blocked user wakes
		for y := range cl.user {
			cl.user[y].woken = cl.user[y].at == xBlocked
		}
	}
	return nil
}

func (e *explorer) check(s *xState) error {
	quiet := true
	for c := range s.c {
		quiet = quiet && len(s.up[c]) == 0 && len(s.down[c]) == 0 && len(s.c[c].outq) == 0
		for x := range s.c[c].locks {
			quiet = quiet && s.c[c].flush[x] == 0 && s.c[c].user[x].at != xBlocked
		}
	}
	for x, ls := range s.srv {
		if u0, u1 := s.c[0].user[x], s.c[1].user[x]; u0.at == xInside && u1.at == xInside &&
			(u0.mode == Exclusive || u1.mode == Exclusive) {
			return fmt.Errorf("(i) both clerks inside lock %d in modes %v and %v", x, u0.mode, u1.mode)
		}
		if len(ls.holders) > 1 && (ls.holders[xNames[0]] == Exclusive || ls.holders[xNames[1]] == Exclusive) {
			return fmt.Errorf("(i) the server records incompatible holders of lock %d: %v", x, ls.holders)
		}
		for c := range s.c {
			if quiet && ls.holders[xNames[c]] != s.c[c].locks[x].mode {
				return fmt.Errorf("(iii) quiescent, but the server has c%d holding lock %d in %v and c%d holds %v",
					c, x, ls.holders[xNames[c]], c, s.c[c].locks[x].mode)
			}
		}
	}
	if len(s.up[0]) > xBound || len(s.up[1]) > xBound || len(s.down[0]) > xBound || len(s.down[1]) > xBound ||
		len(s.c[0].outq) > xBound || len(s.c[1].outq) > xBound {
		return errPruned
	}
	return nil
}

var errPruned = fmt.Errorf("beyond the bound")

// hash hashes s canonically: epochs by their rank among the epochs of
// the same clerk and lock (only their order matters), and the least
// hash over the swaps of clerks and of locks (the model is symmetric
// in both). Each part is read once into words, per swap where a swap
// renames what it holds; the four orders then mix the words.
func (e *explorer) hash(s *xState) uint64 {
	var r xRanks
	for c := range s.c {
		for x := range s.c[c].locks {
			r.note(c, uint64(x), s.c[c].locks[x].epoch)
		}
		for _, op := range s.c[c].outq {
			r.note(c, op.lock, op.epoch)
		}
		for _, b := range s.up[c] {
			for _, q := range b.reqs {
				r.note(c, q.Lock, q.Epoch)
			}
		}
		for _, m := range s.down[c] {
			r.note(c, m.k.Lock, m.epoch)
		}
	}
	for x, ls := range s.srv {
		for _, w := range ls.waiters {
			r.note(xClerkOf(w.clerk), uint64(x), w.epoch)
		}
	}
	var (
		locks [xClerks][xLocks][2]uint64 // a clerk's state of a lock
		msgs  [xClerks][2]xWords         // its queue and links, locks swapped or not
		srv   [xLocks][2]xWords          // the server's lock, clerks swapped or not
	)
	for c := range s.c {
		cl := s.c[c]
		for x := range cl.locks {
			l, u := &cl.locks[x], cl.user[x]
			locks[c][x] = [2]uint64{
				pack(uint64(l.mode), uint64(l.wanted), uint64(l.users), bit(l.revokePending), uint64(l.revokeTo),
					bit(l.revoking), bit(l.lastReq == xNow), uint64(l.lastReqMode), r.rank(c, uint64(x), l.epoch)),
				pack(uint64(l.waiters[Shared]), uint64(l.waiters[Exclusive]), bit(l.owed), uint64(u.at), uint64(u.mode),
					uint64(u.uses), bit(u.woken), uint64(cl.flush[x]), bit(cl.unused[x])),
			}
		}
		for v := range msgs[c] {
			ws := &msgs[c][v]
			ws.add(pack(uint64(len(cl.outq)), uint64(len(s.up[c])), uint64(len(s.down[c]))))
			for _, op := range cl.outq {
				ws.add(pack(bit(op.release), op.lock^uint64(v), uint64(op.mode), r.rank(c, op.lock, op.epoch)))
			}
			for _, m := range s.up[c] {
				ws.add(pack(bit(m.dup), uint64(len(m.rels)), uint64(len(m.reqs))))
				for _, q := range m.rels {
					ws.add(pack(q.Lock^uint64(v), uint64(q.NewMode)))
				}
				for _, q := range m.reqs {
					ws.add(pack(q.Lock^uint64(v), uint64(q.Mode), r.rank(c, q.Lock, q.Epoch)))
				}
			}
			for _, m := range s.down[c] {
				ws.add(pack(bit(m.dup), bit(m.revoke), m.k.Lock^uint64(v), uint64(m.mode), r.rank(c, m.k.Lock, m.epoch)))
			}
		}
	}
	for x, ls := range s.srv {
		for v := range srv[x] {
			ws := &srv[x][v]
			ws.add(pack(uint64(ls.holders[xNames[v]]), uint64(ls.holders[xNames[1-v]]), bit(ls.revoked),
				bit(ls.lastRevoke == xNow), uint64(len(ls.waiters))))
			for _, w := range ls.waiters {
				c := xClerkOf(w.clerk)
				ws.add(pack(uint64(c^v), uint64(w.mode), r.rank(c, uint64(x), w.epoch)))
			}
		}
	}
	var best uint64
	for cs := 0; cs < 2; cs++ { // clerk in slot 0
		for xs := 0; xs < 2; xs++ { // lock in slot 0
			h := mix(0x9e3779b97f4a7c15, pack(uint64(s.ticks), uint64(s.dups)))
			for _, c := range [2]int{cs, 1 - cs} {
				for _, x := range [2]int{xs, 1 - xs} {
					h = mix(mix(h, locks[c][x][0]), locks[c][x][1])
				}
				h = msgs[c][xs].mix(h)
			}
			for _, x := range [2]int{xs, 1 - xs} {
				h = srv[x][cs].mix(h)
			}
			if cs+xs == 0 || h < best {
				best = h
			}
		}
	}
	return best
}

// xRanks holds, per clerk and lock, the distinct epochs of a state in
// increasing order; epoch 0 (a grant for any tenancy) ranks 0.
type xRanks [xClerks][xLocks]struct {
	n int
	e [16]int64
}

func (r *xRanks) note(c int, x uint64, epoch int64) {
	set := &r[c][x]
	i := 0
	for i < set.n && set.e[i] < epoch {
		i++
	}
	if i < set.n && set.e[i] == epoch || epoch == 0 {
		return
	}
	copy(set.e[i+1:set.n+1], set.e[i:set.n])
	set.e[i] = epoch
	set.n++
}

func (r *xRanks) rank(c int, x uint64, epoch int64) uint64 {
	if epoch == 0 {
		return 0
	}
	set := &r[c][x]
	for i := 0; i < set.n; i++ {
		if set.e[i] == epoch {
			return uint64(i + 1)
		}
	}
	panic("epoch not noted")
}

// xWords is a short sequence of packed words.
type xWords struct {
	n int
	w [24]uint64
}

func (ws *xWords) add(w uint64) { ws.w[ws.n] = w; ws.n++ }

func (ws *xWords) mix(h uint64) uint64 {
	for _, w := range ws.w[:ws.n] {
		h = mix(h, w)
	}
	return h
}

// pack puts up to sixteen small fields (each under 16) side by side in
// one word.
func pack(fields ...uint64) uint64 {
	var w uint64
	for _, f := range fields {
		w = w<<4 | f
	}
	return w
}

// mix folds w into h: splitmix64's finalizer.
func mix(h, w uint64) uint64 {
	h ^= w
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

func bit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

type xVisit struct {
	parent uint64
	ev     xEvent
}

// run explores breadth first from the initial state; on a violation it
// returns the interleaving that reaches it.
func (e *explorer) run() (states, depth int, err error) {
	init := e.initial()
	h0 := e.hash(init)
	seen := make(map[uint64]xVisit, 1<<19)
	seen[h0] = xVisit{}
	type node struct {
		s *xState
		h uint64
	}
	level := []node{{init, h0}}
	var scratch xState
	var evs []xEvent
	for len(level) > 0 {
		depth++
		if len(seen) > xStates {
			return len(seen), depth, fmt.Errorf("more than %d states", xStates)
		}
		var next []node
		for _, nd := range level {
			evs = e.events(nd.s, evs[:0])
			for _, ev := range evs {
				verr := e.step(&scratch, nd.s, ev)
				if verr == errPruned {
					e.pruned++
					continue
				}
				if verr != nil {
					return len(seen), depth, fmt.Errorf("%v\n%s", verr, e.trace(seen, nd.h, h0, ev))
				}
				h := e.hash(&scratch)
				if _, ok := seen[h]; ok {
					continue
				}
				seen[h] = xVisit{nd.h, ev}
				ns := new(xState)
				*ns = scratch
				next = append(next, node{ns, h})
			}
		}
		level = next
	}
	return len(seen), depth - 1, nil
}

// trace replays the interleaving that reached state h, then last.
func (e *explorer) trace(seen map[uint64]xVisit, h, h0 uint64, last xEvent) string {
	evs := []xEvent{last}
	for ; h != h0; h = seen[h].parent {
		evs = append(evs, seen[h].ev)
	}
	slices.Reverse(evs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "interleaving of %d steps:\n", len(evs))
	s := e.initial()
	for i, ev := range evs {
		if ev.kind == evDown {
			m := s.down[ev.c][0]
			what := "grant"
			if m.revoke {
				what = "revoke"
			}
			fmt.Fprintf(&sb, "%3d. %s: %s lock %d %v (epoch %d)\n", i+1, ev, what, m.k.Lock, m.mode, m.epoch)
		} else if ev.kind == evUp {
			b := s.up[ev.c][0]
			fmt.Fprintf(&sb, "%3d. %s: releases %+v requests %+v\n", i+1, ev, b.rels, b.reqs)
		} else {
			fmt.Fprintf(&sb, "%3d. %s\n", i+1, ev)
		}
		n := new(xState)
		e.step(n, s, ev)
		s = n
	}
	for c := range s.c {
		for x := range s.c[c].locks {
			fmt.Fprintf(&sb, "     c%d lock %d: %+v user %+v flush %d\n", c, x, s.c[c].locks[x], s.c[c].user[x], s.c[c].flush[x])
		}
	}
	for x, ls := range s.srv {
		fmt.Fprintf(&sb, "     server lock %d: holders %v waiters %+v\n", x, ls.holders, ls.waiters)
	}
	return sb.String()
}

// TestExploreTwoClerks runs the explorer.
func TestExploreTwoClerks(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(400)) // what is kept is small, what is made is not
	for _, e := range []explorer{
		{uses: [xLocks]int8{1, 1}},                    // both locks: batches, link order, one wake for both
		{uses: [xLocks]int8{2, 0}, dups: 2},           // sticky hits and upgrades
		{uses: [xLocks]int8{1, 0}, dups: 2, ticks: 2}, // retransmissions
	} {
		start := time.Now()
		states, depth, err := e.run()
		if err != nil {
			t.Fatalf("uses %v, %d duplicate, %d tick: %d states explored, depth %d: %v", e.uses, e.dups, e.ticks, states, depth, err)
		}
		t.Logf("uses %v, %d duplicate, %d tick: %d states, depth %d (%d successors beyond %d messages a link), %v",
			e.uses, e.dups, e.ticks, states, depth, e.pruned, xBound, time.Since(start).Round(time.Millisecond))
	}
}
