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

// AccountStat is the exported per-principal summary: cumulative
// totals plus, after an Advance, the last closed window's deltas (the
// "right now" view a top display wants).
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

	// Last closed window (zero until the first Advance).
	WinSeconds    float64 `json:"win_seconds,omitempty"`
	WinOps        int64   `json:"win_ops,omitempty"`
	WinBytesIn    int64   `json:"win_bytes_in,omitempty"`
	WinBytesOut   int64   `json:"win_bytes_out,omitempty"`
	WinLockWaitNs int64   `json:"win_lock_wait_ns,omitempty"`
	WinOpP99Ns    int64   `json:"win_op_p99_ns,omitempty"`
}

// Bytes returns the cumulative bytes moved either direction.
func (st AccountStat) Bytes() int64 { return st.BytesIn + st.BytesOut }

// WinBytes returns the last window's bytes moved either direction.
func (st AccountStat) WinBytes() int64 { return st.WinBytesIn + st.WinBytesOut }

// acctMark is one account's counter state at a window boundary.
type acctMark struct {
	n    [numCharges]int64
	hist histCounts
}

type acctWin struct {
	seconds float64
	n       [numCharges]int64 // deltas over the window
	p99     int64
}

// AccountTable is the bounded per-principal accounting table. All
// recording methods are nil-safe no-ops (the ablation knob hands out
// a nil table), normalize an empty principal to UnknownPrincipal, and
// take only a short read lock on the hot path.
type AccountTable struct {
	now NowFunc

	// unknown is the reserved account for unattributed work. It is
	// never folded, so the pointer is stable for the table's lifetime;
	// caching it lets the common unbound charge skip the lock and map
	// lookup entirely.
	unknown *account

	mu    sync.RWMutex
	m     map[string]*account
	prevT int64
	prev  map[string]acctMark
	wins  map[string]acctWin
}

// NewAccountTable returns a standalone table (see NewCounter for the
// standalone-collector idiom). A nil now means wall time.
func NewAccountTable(now NowFunc) *AccountTable {
	if now == nil {
		now = wallNow
	}
	t := &AccountTable{
		now:     now,
		unknown: &account{lat: NewHistogram()},
		m:       make(map[string]*account),
		prev:    make(map[string]acctMark),
		wins:    make(map[string]acctWin),
	}
	t.m[UnknownPrincipal] = t.unknown
	t.prevT = now()
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
// and other accounts are never folded.
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
	delete(t.prev, victim)
	delete(t.wins, victim)
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

// Advance closes the window since the previous Advance (or since
// construction): per-principal deltas and a per-window op p99 from
// windowStat, the function WindowRing applies to named metrics. The
// results ride the next Snapshot's Win* fields.
func (t *AccountTable) Advance() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	secs := float64(now-t.prevT) / 1e9
	for p, a := range t.m {
		var cur acctMark
		prev := t.prev[p]
		win := acctWin{seconds: secs}
		for i := range a.n {
			cur.n[i] = a.n[i].Load()
			win.n[i] = cur.n[i] - prev.n[i]
		}
		cur.hist.buckets, cur.hist.count, cur.hist.sum = a.lat.counts()
		if st, ok := windowStat(&prev.hist, &cur.hist, a.lat.Max()); ok {
			win.p99 = st.P99
		}
		t.prev[p] = cur
		t.wins[p] = win
	}
	t.prevT = now
}

// Snapshot returns every account's cumulative totals plus the last
// closed window, sorted by total bytes moved (desc), ties by ops then
// principal name for determinism.
func (t *AccountTable) Snapshot() []AccountStat {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	out := make([]AccountStat, 0, len(t.m))
	for p, a := range t.m {
		if a.idle() {
			continue
		}
		st := AccountStat{
			Principal:   p,
			Ops:         a.n[cOps].Load(),
			BytesIn:     a.n[cBytesIn].Load(),
			BytesOut:    a.n[cBytesOut].Load(),
			WALBytes:    a.n[cWAL].Load(),
			RPCs:        a.n[cRPCs].Load(),
			ServerOps:   a.n[cServerOps].Load(),
			LockWaitNs:  a.n[cLockWait].Load(),
			CacheMisses: a.n[cMisses].Load(),
			OpP50Ns:     a.lat.Quantile(0.50),
			OpP99Ns:     a.lat.Quantile(0.99),
		}
		if w, ok := t.wins[p]; ok {
			st.WinSeconds = w.seconds
			st.WinOps = w.n[cOps]
			st.WinBytesIn = w.n[cBytesIn]
			st.WinBytesOut = w.n[cBytesOut]
			st.WinLockWaitNs = w.n[cLockWait]
			st.WinOpP99Ns = w.p99
		}
		out = append(out, st)
	}
	t.mu.RUnlock()
	slices.SortFunc(out, func(a, b AccountStat) int {
		return cmp.Or(cmp.Compare(b.Bytes(), a.Bytes()), cmp.Compare(b.Ops, a.Ops), cmp.Compare(a.Principal, b.Principal))
	})
	return out
}

// RenderAccounts renders the per-principal table, top style: one row
// per principal, cumulative totals with the last window's rates when
// a window has been closed.
func RenderAccounts(stats []AccountStat) string {
	if len(stats) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "principals (%d):\n  %-16s %10s %12s %12s %10s %12s %9s %9s %12s\n",
		len(stats), "principal", "ops", "wr MB", "rd MB", "rpcs",
		"lockwait ms", "p99 ms", "misses", "now MB/s")
	for _, st := range stats {
		rate := "-"
		if st.WinSeconds > 0 {
			rate = fmt.Sprintf("%.2f", float64(st.WinBytes())/1e6/st.WinSeconds)
		}
		fmt.Fprintf(&b, "  %-16s %10d %12.2f %12.2f %10d %12.3f %9.3f %9d %12s\n",
			st.Principal, st.Ops,
			float64(st.BytesIn)/1e6, float64(st.BytesOut)/1e6,
			st.RPCs, float64(st.LockWaitNs)/1e6,
			float64(st.OpP99Ns)/1e6, st.CacheMisses, rate)
	}
	return b.String()
}
