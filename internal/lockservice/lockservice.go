// Package lockservice implements Frangipani's distributed lock
// service (paper §6): multiple-reader/single-writer locks organized
// into tables named by ASCII strings, with individual locks named by
// 64-bit integers. Locks are sticky — a clerk retains a lock until
// another clerk needs a conflicting one. Client failure is handled
// with leases; lock server failure is handled by reassigning lock
// shards across the surviving servers (via a Paxos-replicated,
// epoch-numbered shard map) and recovering lock state from the
// clerks.
//
// The lock table is partitioned into shards by hash(lockID); the
// shard map (shard -> owning server) is part of the replicated global
// state and carries an epoch that advances on every reassignment. A
// clerk routing with a stale map is rejected with a WrongShard nack
// carrying the server's epoch, refetches the map, and retries against
// the new owner — so no server ever serves a lock it does not own.
//
// Clerks and lock servers communicate via asynchronous messages
// (request, grant, revoke, release) rather than RPC, exactly as the
// paper prescribes; every handler is idempotent so the protocol
// tolerates message loss. The clerk->server direction is vectored:
// per-shard-server AcquireBatch/ReleaseBatch messages carry many lock
// operations in one network message. A lease renewal is a cast too:
// it rides on a batch (AcquireBatch/ReleaseBatch.Renew) or, for a
// server no batch has renewed lately, goes as one RenewMsg (never per
// lock). Either way the server casts a RenewAck back, with its
// shard-map epoch. A clerk with traffic in flight sends no RenewMsg,
// so the per-server renewal load stays O(1) as the cluster grows.
package lockservice

import (
	"errors"
	"slices"
	"time"

	"frangipani/internal/paxos"
	"frangipani/internal/rpc"
)

// Wire-type registration so the protocol runs over TCP carriers.
func init() {
	rpc.Register(
		GrantMsg{}, RevokeMsg{},
		AcquireBatch{}, ReleaseBatch{}, WrongShard{}, BatchReq{}, BatchRel{},
		OpenReq{}, OpenResp{}, CloseReq{},
		RenewMsg{}, RenewAck{}, RenewalsReq{}, RenewalsResp{},
		SyncReq{}, SyncResp{}, HeldLock{},
		RecoverReq{}, RecoveryDone{},
		CmdOpenSession{}, CmdCloseSession{}, CmdMarkDead{},
		GState{}, Session{},
	)
}

// Mode is a lock mode. Modes are ordered: None < Shared < Exclusive.
type Mode int

// Lock modes.
const (
	None Mode = iota
	Shared
	Exclusive
)

func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case Shared:
		return "shared"
	case Exclusive:
		return "exclusive"
	}
	return "invalid"
}

// DefaultShards is the default number of lock-table shards: "locks
// are partitioned into about one hundred distinct lock groups, and
// are assigned to servers by group, not individually" (§6). The count
// is configurable per deployment via Config.Shards.
const DefaultShards = 100

// ShardOf maps a lock id to its shard by hash. Frangipani lock ids
// are structured (inode numbers, bitmap segments), so a plain modulus
// would skew entire id ranges onto a few shards; the splitmix64
// finalizer spreads them uniformly.
func ShardOf(lock uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	x := lock + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// Timing defaults, in simulated time. The paper's lease is 30 s with
// a 15 s safety margin.
const (
	DefaultLeaseDuration = 30 * time.Second
	DefaultLeaseMargin   = 15 * time.Second
	// DefaultIdleDiscard matches §6: "to avoid consuming too much
	// memory because of sticky locks, clerks discard locks that have
	// not been used for a long time (1 hour)".
	DefaultIdleDiscard = time.Hour
)

// Errors returned by clerk operations.
var (
	ErrLeaseLost = errors.New("lockservice: lease lost")
	ErrClosed    = errors.New("lockservice: clerk closed")
	ErrNoServer  = errors.New("lockservice: no lock server reachable")
	// ErrPriorSession refuses an open while the session of an earlier
	// incarnation of the same clerk (a machine that crashed and came
	// back under its name) is still in the global state: its log must
	// be recovered, and the session closed, before the name is reused.
	ErrPriorSession = errors.New("lockservice: an earlier incarnation's session is still open")
)

// Per-lock memory cost constants from the paper, used only for the
// stats the service reports: "the server allocates a block of 112
// bytes per lock, in addition to 104 bytes per clerk that has an
// outstanding or granted lock request. Each client uses up 232 bytes
// per lock."
const (
	ServerBytesPerLock  = 112
	ServerBytesPerClerk = 104
	ClerkBytesPerLock   = 232
)

// Wire messages. Clerk -> server: AcquireBatch, ReleaseBatch,
// OpenReq, CloseReq, RenewMsg, SyncResp, RecoveryDone. Server -> clerk:
// GrantMsg, RevokeMsg, WrongShard, RenewAck, SyncReq, RecoverReq.
type (
	// BatchReq is one lock request inside an AcquireBatch. Clerks
	// retransmit it until granted. Epoch is the clerk's per-lock
	// request epoch: it advances every time the clerk releases or
	// downgrades, so a grant answering an old (retransmitted) request
	// cannot be mistaken for a grant of the current request after the
	// clerk has since given the lock up.
	BatchReq struct {
		Lock  uint64
		Mode  Mode
		Epoch int64
	}
	// AcquireBatch carries every pending lock request a clerk has for
	// one shard server in a single message: the clerk's sender demon
	// drains its queue and groups requests per owning server, so a
	// burst of N acquires costs one network message, not N. MapEpoch
	// is the shard-map epoch the clerk routed with.
	AcquireBatch struct {
		Clerk    string
		Table    string
		MapEpoch int64
		Reqs     []BatchReq
		// Renew, when not 0, doubles the batch as a renewal of that
		// lease: a busy clerk rides its renewals on batch traffic it is
		// sending anyway, so its ticks send no RenewMsg. The server
		// answers it as it answers a RenewMsg.
		Renew uint64
	}
	// BatchRel is one release (NewMode=None) or downgrade
	// (NewMode=Shared) inside a ReleaseBatch.
	BatchRel struct {
		Lock    uint64
		NewMode Mode
	}
	// ReleaseBatch carries a clerk's releases and downgrades for one
	// shard server, grouped like AcquireBatch.
	ReleaseBatch struct {
		Clerk    string
		Table    string
		MapEpoch int64
		Rels     []BatchRel
		Renew    uint64 // a lease renewal; see AcquireBatch
	}
	// WrongShard rejects operations on locks the receiving server does
	// not own: the clerk routed with a stale shard map. Epoch is the
	// server's current map epoch; a clerk behind it refetches the map
	// and retries the listed locks against the new owners. Lost nacks
	// are harmless: acquires are retransmitted by the clerk's retry
	// ticker and releases are re-asked-for by the server's revoke
	// retry.
	WrongShard struct {
		Server string
		Table  string
		Epoch  int64
		Locks  []uint64
	}
	// GrantMsg tells a clerk it now holds the lock in Mode. Ver is
	// the granting server's global-state version; clerks reject
	// grants older than the version at which the lock's shard was
	// last synced to a new server, fencing grants from a deposed
	// server that has not yet applied the reassignment.
	GrantMsg struct {
		Table string
		Lock  uint64
		Mode  Mode
		Ver   int64
		Epoch int64 // echo of the granted request's epoch
	}
	// RevokeMsg asks a holder to reduce its hold to NewMode (None or
	// Shared). Servers retransmit while the conflict persists.
	RevokeMsg struct {
		Table   string
		Lock    uint64
		NewMode Mode
	}
	// OpenReq opens a lock table and establishes a lease (a Call).
	// Incarnation tells this clerk apart from an earlier one of the same
	// machine: the simulated time of its Open.
	OpenReq struct {
		Clerk       string
		Table       string
		Incarnation int64
	}
	// OpenResp returns the lease identifier and the log slot assigned
	// to this session; Frangipani uses the slot to pick its private
	// log ("determines which portion of the log space to use from the
	// lease identifier", §7). State, the global state the open was
	// applied to, gives the clerk its shard map in the same round trip.
	OpenResp struct {
		OK      bool
		Err     string
		LeaseID uint64
		LogSlot int
		State   GState
	}
	// CloseReq closes a session cleanly (unmount).
	CloseReq struct {
		Clerk string
		Table string
	}
	// RenewMsg renews a lease at one lock server (never per lock); a
	// clerk's tick casts it to the servers batch traffic has not
	// renewed lately.
	RenewMsg struct {
		Clerk   string
		LeaseID uint64
	}
	// RenewAck answers a renewal, cast from one server. Valid is false
	// when the server knows of no live session with that lease — the
	// session expired and was recovered — so a zombie clerk that was
	// stalled past its lease learns its fate at the next renewal
	// instead of continuing on stale locks. MapEpoch is the server's
	// shard-map epoch; a clerk behind it refetches the map without
	// waiting to be nacked.
	RenewAck struct {
		Server   string
		LeaseID  uint64
		Valid    bool
		MapEpoch int64
	}
	// RenewalsReq asks a lock server for its lease-renewal table (a
	// Call). The coordinator's expiry sweep aggregates these so that
	// a session is expired only when a MAJORITY of lock servers has
	// not heard from the clerk — the same rule the clerk itself uses
	// to judge its lease, so the two views cannot diverge under
	// asymmetric message loss.
	RenewalsReq struct{}
	// RenewalsResp carries clerk -> last-renewal simulated time (ns).
	RenewalsResp struct {
		OK    bool
		Times map[string]int64
	}
	// SyncReq asks a clerk to report its held locks in the given
	// shards so a server taking over those shards can rebuild state.
	// NumShards lets the clerk evaluate shard membership even before
	// it has refetched the new map.
	SyncReq struct {
		Server    string
		Table     string
		Shards    []int
		NumShards int
		Seq       uint64
		Ver       int64 // state version of the gaining server (fencing floor)
	}
	// SyncResp reports held locks (mode > None only).
	SyncResp struct {
		Clerk string
		Seq   uint64
		Locks []HeldLock
	}
	// HeldLock is one (lock, mode) pair in a SyncResp.
	HeldLock struct {
		Lock uint64
		Mode Mode
	}
	// RecoverReq asks a live clerk to run crash recovery for a dead
	// one. The receiving clerk is implicitly granted ownership of the
	// dead clerk's log and locks for the duration. LeaseID is the dead
	// session's lease: the tenancy whose blocks in the slot are its log.
	RecoverReq struct {
		Server   string
		Table    string
		Dead     string
		DeadSlot int
		LeaseID  uint64
		Seq      uint64
	}
	// RecoveryDone reports that log replay finished; the lock service
	// may release the dead clerk's locks.
	RecoveryDone struct {
		Clerk string
		Table string
		Dead  string
		Seq   uint64
	}
)

// uvarintLen returns the encoded length of a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen returns the encoded length of a zigzag varint.
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// WireSize is the simulated network's cost model of a batch: about its
// encoded bytes, so that vectoring N requests into one message costs
// one base-message overhead, not N.
func (m AcquireBatch) WireSize() int {
	n := 2 + len(m.Clerk) + len(m.Table) + varintLen(m.MapEpoch) + uvarintLen(m.Renew) + uvarintLen(uint64(len(m.Reqs)))
	for _, r := range m.Reqs {
		n += uvarintLen(r.Lock) + 1 + varintLen(r.Epoch)
	}
	return n
}

// WireSize is the cost model of a batch (see AcquireBatch).
func (m ReleaseBatch) WireSize() int {
	n := 2 + len(m.Clerk) + len(m.Table) + varintLen(m.MapEpoch) + uvarintLen(m.Renew) + uvarintLen(uint64(len(m.Rels)))
	for _, r := range m.Rels {
		n += uvarintLen(r.Lock) + 1
	}
	return n
}

// WireSize is the cost model of a nack (see AcquireBatch).
func (m WrongShard) WireSize() int {
	n := 2 + len(m.Server) + len(m.Table) + varintLen(m.Epoch) + uvarintLen(uint64(len(m.Locks)))
	for _, lk := range m.Locks {
		n += uvarintLen(lk)
	}
	return n
}

// Global-state commands, decided through Paxos.
type (
	// CmdOpenSession registers a clerk's open table and assigns a
	// lease id and log slot deterministically. It is idempotent for one
	// incarnation, and leaves the state alone while a session of
	// another incarnation is open.
	CmdOpenSession struct {
		Clerk       string
		Table       string
		Incarnation int64
	}
	// CmdCloseSession removes a session (clean close, or after
	// recovery of a dead clerk completes).
	CmdCloseSession struct {
		Clerk string
		Table string
	}
	// CmdMarkDead flags a session as expired; its locks stay frozen
	// until recovery completes and CmdCloseSession is applied.
	CmdMarkDead struct {
		Clerk string
		Table string
	}
)

// Session is one open (clerk, table) pair.
type Session struct {
	Clerk       string
	Table       string
	Incarnation int64 // of the clerk that opened it (OpenReq)
	LeaseID     uint64
	LogSlot     int
	Dead        bool // lease expired; recovery in progress
}

// GState is the lock service's Paxos-replicated global state: "a list
// of lock servers, a list of locks that each is responsible for
// serving, and a list of clerks that have opened but not yet closed
// each lock table" (§6). The lock list takes the form of an
// epoch-numbered shard map.
type GState struct {
	Servers    []string
	Alive      map[string]bool
	Shards     int
	Assignment []string // shard -> lock server
	// Epoch advances on every change to Assignment and fences
	// routing: servers nack operations on shards they do not own,
	// quoting their epoch, and clerks refetch when behind.
	Epoch     int64
	Sessions  map[string]Session // key: clerk+"/"+table
	NextLease uint64
	Version   int64
}

func sessionKey(clerk, table string) string { return clerk + "/" + table }

// kthNewest returns the k-th largest of times (k from 1), reordering
// them: the newest instant by which k of the servers had heard from a
// clerk — the majority-rank rule both the clerk's lease and the
// coordinator's expiry sweep judge by.
func kthNewest(times []int64, k int) int64 {
	slices.Sort(times)
	return times[len(times)-k]
}

// NewGState builds the initial state with all servers alive and
// shards balanced across them. shards <= 0 selects DefaultShards.
func NewGState(servers []string, shards int) GState {
	if shards <= 0 {
		shards = DefaultShards
	}
	g := GState{
		Servers:    append([]string(nil), servers...),
		Alive:      make(map[string]bool, len(servers)),
		Shards:     shards,
		Assignment: make([]string, shards),
		Sessions:   make(map[string]Session),
		NextLease:  1,
	}
	for _, s := range servers {
		g.Alive[s] = true
	}
	g.reassign()
	return g
}

// Clone returns a deep copy.
func (g GState) Clone() GState {
	out := g
	out.Servers = append([]string(nil), g.Servers...)
	out.Assignment = append([]string(nil), g.Assignment...)
	out.Alive = make(map[string]bool, len(g.Alive))
	for k, v := range g.Alive {
		out.Alive[k] = v
	}
	out.Sessions = make(map[string]Session, len(g.Sessions))
	for k, v := range g.Sessions {
		out.Sessions[k] = v
	}
	return out
}

// Apply executes one command deterministically.
func (g *GState) Apply(cmd any) {
	g.Version++
	switch c := cmd.(type) {
	case CmdOpenSession:
		key := sessionKey(c.Clerk, c.Table)
		if _, ok := g.Sessions[key]; ok {
			return // a re-open keeps the existing lease; one of another incarnation is refused
		}
		g.Sessions[key] = Session{
			Clerk:       c.Clerk,
			Table:       c.Table,
			Incarnation: c.Incarnation,
			LeaseID:     g.NextLease,
			LogSlot:     g.freeSlot(c.Table),
		}
		g.NextLease++
	case CmdCloseSession:
		delete(g.Sessions, sessionKey(c.Clerk, c.Table))
	case CmdMarkDead:
		key := sessionKey(c.Clerk, c.Table)
		if s, ok := g.Sessions[key]; ok {
			s.Dead = true
			g.Sessions[key] = s
		}
	case paxos.SetAlive:
		// A liveness change reassigns shards: "the locks are always
		// reassigned such that the number of locks served by each
		// server is balanced, the number of reassignments is
		// minimized, and each lock is served by exactly one lock
		// server" (§6). Every reassignment advances the map epoch.
		if _, ok := g.Alive[c.Server]; ok {
			g.Alive[c.Server] = c.Alive
			g.reassign()
		}
	}
}

// freeSlot returns the lowest log slot unused by open sessions of a
// table.
func (g *GState) freeSlot(table string) int {
	used := make(map[int]bool)
	for _, s := range g.Sessions {
		if s.Table == table {
			used[s.LogSlot] = true
		}
	}
	for i := 0; ; i++ {
		if !used[i] {
			return i
		}
	}
}

// reassign rebalances shards over the alive servers with minimal
// movement: shards whose server is still alive stay put; orphaned
// shards go to the least-loaded alive servers. Any actual movement
// advances the map epoch.
func (g *GState) reassign() {
	var alive []string
	for _, s := range g.Servers {
		if g.Alive[s] {
			alive = append(alive, s)
		}
	}
	if len(alive) == 0 {
		return // total outage: keep the old map; nobody is serving anyway
	}
	changed := false
	load := make(map[string]int, len(alive))
	for _, s := range alive {
		load[s] = 0
	}
	var orphans []int
	for i, s := range g.Assignment {
		if _, ok := load[s]; ok {
			load[s]++
		} else {
			orphans = append(orphans, i)
		}
	}
	for _, i := range orphans {
		best := alive[0]
		for _, s := range alive[1:] {
			if load[s] < load[best] {
				best = s
			}
		}
		g.Assignment[i] = best
		load[best]++
		changed = true
	}
	// Rebalance from overloaded to underloaded servers to keep counts
	// within one of each other.
	target := g.Shards / len(alive)
	for _, under := range alive {
		for load[under] < target {
			moved := false
			for i, s := range g.Assignment {
				if s != under && load[s] > target {
					g.Assignment[i] = under
					load[s]--
					load[under]++
					moved = true
					changed = true
					if load[under] >= target {
						break
					}
				}
			}
			if !moved {
				break
			}
		}
	}
	if changed {
		g.Epoch++
	}
}

// ShardOf returns the shard a lock belongs to under this map.
func (g *GState) ShardOf(lock uint64) int { return ShardOf(lock, g.Shards) }

// ServerFor returns the lock server assigned to a lock.
func (g *GState) ServerFor(lock uint64) string { return g.Assignment[g.ShardOf(lock)] }
