package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Per-principal resource accounting: every byte moved, RPC issued,
// lock-wait nanosecond, and cache miss is attributed to the client or
// tenant ("principal") on whose behalf the work ran. The principal is
// bound where an operation enters the file system (fs.FS.As), travels
// with the operation's span (Span.Principal), and rides the Petal
// request headers across machines (Ctx), so server-side work done for
// a remote client is charged to that client, not to the server.
//
// Work that was handed no span — background flushers, prefetch, lease
// renewals, recovery — lands in the reserved UnknownPrincipal account
// rather than being dropped: unattributed load stays visible, and the
// attribution-coverage gate in the noisy-neighbor experiment measures
// exactly how much of the cluster's work the tags explain.

const (
	// UnknownPrincipal absorbs work done on behalf of no operation.
	UnknownPrincipal = "unknown"
	// OtherPrincipal absorbs accounts folded out of a full table, so
	// totals are never lost to eviction.
	OtherPrincipal = "other"
)

// ---- account table ----------------------------------------------

// maxAccounts bounds one table's principal count. When a new
// principal would exceed it, the coldest evictable account is folded
// into OtherPrincipal (counters summed, latency histogram merged), so
// the table is bounded but cluster totals stay exact.
const maxAccounts = 64

// The charges an account sums, indexes into account.n.
const (
	cOps      = iota
	cBytesIn  // written by the principal
	cBytesOut // read by the principal
	cWAL
	cRPCs
	cServerOps
	cLockWait
	cMisses
	numCharges
)

type account struct {
	n   [numCharges]atomic.Int64
	lat *Histogram
}

func (a *account) total() int64 {
	return a.n[cBytesIn].Load() + a.n[cBytesOut].Load() + a.n[cOps].Load()
}

// idle reports whether nothing has ever been charged to the account.
// Only the pre-created unknown account can be idle: every other
// account exists because some charge created it.
func (a *account) idle() bool {
	for i := range a.n {
		if a.n[i].Load() != 0 {
			return false
		}
	}
	return true
}

// AccountStat is the exported per-principal summary: the cumulative
// totals in a Snapshot, the charges over one window in a Window's
// Accounts (there the quantiles are the window's).
type AccountStat struct {
	Principal   string `json:"principal"`
	Ops         int64  `json:"ops"`
	BytesIn     int64  `json:"bytes_in"`
	BytesOut    int64  `json:"bytes_out"`
	WALBytes    int64  `json:"wal_bytes"`
	RPCs        int64  `json:"rpcs"`
	ServerOps   int64  `json:"server_ops"`
	LockWaitNs  int64  `json:"lock_wait_ns"`
	CacheMisses int64  `json:"cache_misses"`
	OpP50Ns     int64  `json:"op_p50_ns"`
	OpP99Ns     int64  `json:"op_p99_ns"`
}

// Bytes returns the bytes moved either direction.
func (st AccountStat) Bytes() int64 { return st.BytesIn + st.BytesOut }

// acctMark is one account's charges at a window boundary.
type acctMark struct {
	p    string
	n    [numCharges]int64
	hist histCounts
}

// add adds m's charges and latency counts to k.
func (k *acctMark) add(m acctMark) {
	for i := range m.n {
		k.n[i] += m.n[i]
	}
	for i := range m.hist.buckets {
		k.hist.buckets[i] += m.hist.buckets[i]
	}
	k.hist.count += m.hist.count
	k.hist.sum += m.hist.sum
}

// AccountTable is the bounded per-principal accounting table. All
// recording methods are nil-safe no-ops (the ablation knob hands out
// a nil table), normalize an empty principal to UnknownPrincipal, and
// take only a short read lock on the hot path.
type AccountTable struct {
	// unknown is the reserved account for unattributed work. It is
	// never folded, so the pointer is stable for the table's lifetime;
	// caching it lets the common unbound charge skip the lock and map
	// lookup entirely.
	unknown *account

	mu sync.RWMutex
	m  map[string]*account
}

// NewAccountTable returns a standalone table (see NewCounter for the
// standalone-collector idiom).
func NewAccountTable() *AccountTable {
	t := &AccountTable{
		unknown: &account{lat: NewHistogram()},
		m:       make(map[string]*account),
	}
	t.m[UnknownPrincipal] = t.unknown
	return t
}

// get returns the principal's account, creating (and if necessary
// evicting) under the write lock.
func (t *AccountTable) get(p string) *account {
	if p == "" || p == UnknownPrincipal {
		return t.unknown
	}
	t.mu.RLock()
	a := t.m[p]
	t.mu.RUnlock()
	if a != nil {
		return a
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a = t.m[p]; a != nil {
		return a
	}
	// Folding into a fresh other account does not shrink the table on
	// the first pass (one removed, one added), so loop until a slot is
	// actually free or nothing evictable remains.
	for len(t.m) >= maxAccounts && t.foldColdestLocked() {
	}
	a = &account{lat: NewHistogram()}
	t.m[p] = a
	return a
}

// foldColdestLocked folds the least active evictable account into
// OtherPrincipal: counters are summed and the latency histogram
// merged, so nothing the cluster did disappears from the totals —
// only its fine-grained identity is given up. The reserved unknown
// and other accounts are never folded. (A window ring that marked the
// victim carries the mark into other's, so other's next window holds
// only what the victim did in it.)
func (t *AccountTable) foldColdestLocked() bool {
	var victim string
	var va *account
	for p, a := range t.m {
		if p == UnknownPrincipal || p == OtherPrincipal {
			continue
		}
		if va == nil || a.total() < va.total() {
			victim, va = p, a
		}
	}
	if va == nil {
		return false
	}
	other := t.m[OtherPrincipal]
	if other == nil {
		other = &account{lat: NewHistogram()}
		t.m[OtherPrincipal] = other
	}
	for i := range va.n {
		other.n[i].Add(va.n[i].Load())
	}
	other.lat.absorb(va.lat)
	delete(t.m, victim)
	return true
}

// absorb adds src's observations into h (bucket-wise), for folding an
// evicted account's latency distribution into the other account.
func (h *Histogram) absorb(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	for i := range src.buckets {
		if v := src.buckets[i].Load(); v != 0 {
			h.buckets[i].Add(v)
		}
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
	for {
		m, cur := src.max.Load(), h.max.Load()
		if m <= cur || h.max.CompareAndSwap(cur, m) {
			return
		}
	}
}

// Op records one completed operation and its duration for principal p.
func (t *AccountTable) Op(p string, durNs int64) {
	if t == nil {
		return
	}
	a := t.get(p)
	a.n[cOps].Add(1)
	a.lat.Record(durNs)
}

// charge adds n of charge c to principal p's account; n <= 0 is no
// charge.
func (t *AccountTable) charge(p string, c int, n int64) {
	if t != nil && n > 0 {
		t.get(p).n[c].Add(n)
	}
}

// Bytes records bytes written (in) and read (out) by principal p.
func (t *AccountTable) Bytes(p string, in, out int64) {
	t.charge(p, cBytesIn, in)
	t.charge(p, cBytesOut, out)
}

// WAL records n log bytes appended on behalf of principal p.
func (t *AccountTable) WAL(p string, n int64) { t.charge(p, cWAL, n) }

// RPC records n RPCs issued on behalf of principal p.
func (t *AccountTable) RPC(p string, n int64) { t.charge(p, cRPCs, n) }

// ServerOp records one server-side request handled for principal p
// (the principal arrives in the request's header).
func (t *AccountTable) ServerOp(p string) { t.charge(p, cServerOps, 1) }

// LockWait records ns spent waiting for a lock on behalf of p.
func (t *AccountTable) LockWait(p string, ns int64) { t.charge(p, cLockWait, ns) }

// CacheMiss records n cache misses charged to principal p.
func (t *AccountTable) CacheMiss(p string, n int64) { t.charge(p, cMisses, n) }

// Len returns the number of tracked principals.
func (t *AccountTable) Len() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// marks copies every account's charges and latency counts, keyed by
// the account: a principal folded away and charged again is a new
// account, and an account missing from a later copy was folded into
// OtherPrincipal. Idle accounts are skipped.
func (t *AccountTable) marks() map[*account]acctMark {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[*account]acctMark, len(t.m))
	for p, a := range t.m {
		if a.idle() {
			continue
		}
		m := acctMark{p: p}
		for i := range a.n {
			m.n[i] = a.n[i].Load()
		}
		m.hist.buckets, m.hist.count, m.hist.sum = a.lat.counts()
		out[a] = m
	}
	return out
}

// Snapshot returns every account's cumulative totals: its window since
// the table began.
func (t *AccountTable) Snapshot() []AccountStat {
	if t == nil {
		return nil
	}
	return accountWindow(nil, t.marks())
}

// accountWindow is each principal's charges between two marks of the
// table, with the window's op latency quantiles, sorted by bytes moved
// (desc), ties by ops then principal name for determinism. An account
// in prev but not in cur was folded into OtherPrincipal, totals and
// all: its mark moves into other's, so other's window holds only what
// the victim did in it.
func accountWindow(prev, cur map[*account]acctMark) []AccountStat {
	var folded acctMark
	for a, m := range prev {
		if _, ok := cur[a]; !ok {
			folded.add(m)
		}
	}
	out := make([]AccountStat, 0, len(cur))
	for a, m := range cur {
		base := prev[a]
		if m.p == OtherPrincipal {
			base.add(folded)
		}
		var d [numCharges]int64
		for i := range d {
			d[i] = m.n[i] - base.n[i]
		}
		st := AccountStat{Principal: m.p, Ops: d[cOps], BytesIn: d[cBytesIn], BytesOut: d[cBytesOut],
			WALBytes: d[cWAL], RPCs: d[cRPCs], ServerOps: d[cServerOps], LockWaitNs: d[cLockWait], CacheMisses: d[cMisses]}
		if hs, ok := windowStat(&base.hist, &m.hist, a.lat.Max()); ok {
			st.OpP50Ns, st.OpP99Ns = hs.P50, hs.P99
		}
		out = append(out, st)
	}
	slices.SortFunc(out, func(a, b AccountStat) int {
		return cmp.Or(cmp.Compare(b.Bytes(), a.Bytes()), cmp.Compare(b.Ops, a.Ops), cmp.Compare(a.Principal, b.Principal))
	})
	return out
}

// RenderAccounts renders the per-principal table, top style: one row
// per principal of stats, its cumulative totals and its rate over win,
// the window just closed ("-" for a principal win does not hold, and
// for every principal when win is the zero Window).
func RenderAccounts(stats []AccountStat, win Window) string {
	if len(stats) == 0 {
		return ""
	}
	now := make(map[string]int64, len(win.Accounts))
	for _, st := range win.Accounts {
		now[st.Principal] = st.Bytes()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "principals (%d):\n  %-16s %10s %12s %12s %10s %12s %9s %9s %12s\n",
		len(stats), "principal", "ops", "wr MB", "rd MB", "rpcs",
		"lockwait ms", "p99 ms", "misses", "now MB/s")
	for _, st := range stats {
		rate := "-"
		if n, ok := now[st.Principal]; ok && win.Seconds() > 0 {
			rate = fmt.Sprintf("%.2f", float64(n)/1e6/win.Seconds())
		}
		fmt.Fprintf(&b, "  %-16s %10d %12.2f %12.2f %10d %12.3f %9.3f %9d %12s\n",
			st.Principal, st.Ops,
			float64(st.BytesIn)/1e6, float64(st.BytesOut)/1e6,
			st.RPCs, float64(st.LockWaitNs)/1e6,
			float64(st.OpP99Ns)/1e6, st.CacheMisses, rate)
	}
	return b.String()
}
