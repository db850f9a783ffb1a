package obs

import (
	"sync"
	"time"
)

func wallNow() int64 { return time.Now().UnixNano() }

// Event is one fixed-size flight-recorder record, written into the
// Journal ring of the server it happened on. Two kinds share it:
//
//   - an event, at a point the metrics layer cannot explain after the
//     fact: lease expiry, revoke stalls, log replay, Petal failover,
//     connection churn;
//   - a finished span (Kind == SpanKind): Key is the span's ID, Arg its
//     duration, Detail its principal, T its end, and Trace and Parent
//     place it in its trace.
//
// The struct holds only scalars and string headers; callers pass static
// or pre-formatted strings so a record does not allocate.
type Event struct {
	Seq    uint64 `json:"seq"`              // per-journal sequence number
	T      int64  `json:"t_ns"`             // ns on the deployment clock (sim or wall)
	Server string `json:"server"`           // journal owner ("ws1", "petal0", "cluster")
	Layer  string `json:"layer"`            // "lockservice", "wal", "petal", "rpc", "fs", "obs"
	Op     string `json:"op"`               // "acquire", "lease", "flush", "conn", ...
	Kind   string `json:"kind"`             // "wait", "expire", "retry", "crit", "span", ...
	Key    uint64 `json:"key,omitempty"`    // entity: lock id, inode, WAL seq, chunk; a span's ID
	Arg    int64  `json:"arg,omitempty"`    // small numeric payload: ns, bytes, count, slot
	Detail string `json:"detail,omitempty"` // short free text ("ws1->petal2", error)
	Trace  uint64 `json:"trace,omitempty"`  // span records: the trace
	Parent uint64 `json:"parent,omitempty"` // span records: the parent span (0 for a root)
}

// SpanKind is the Kind of a finished span's record.
const SpanKind = "span"

// span returns the span a SpanKind record was written for.
func (e *Event) span() Span {
	return Span{TraceID: e.Trace, ID: e.Key, Parent: e.Parent, Layer: e.Layer, Op: e.Op,
		Start: e.T - e.Arg, End: e.T, Principal: e.Detail}
}

// DefaultJournalCap is the per-server ring size used by
// Registry.Journal. At 128 B a record a server's ring is 512 KB; it
// holds hours of failure-relevant history on an idle server and under
// a second of a metadata-heavy one's spans and log appends.
const DefaultJournalCap = 4096

// Journal is one server's bounded flight-recorder ring. Writers
// overwrite the oldest record once the ring is full; readers get a
// snapshot copy. All methods are nil-safe no-ops, matching the rest
// of the obs package, so unwired components cost nothing.
type Journal struct {
	server string
	now    NowFunc

	mu   sync.Mutex
	ring []Event
	pos  int // next write slot
	size int // occupied slots, <= len(ring)
	seq  uint64
}

// NewJournal returns a standalone journal (see NewCounter for the
// standalone-collector idiom). A nil now means wall time; capacity
// < 1 falls back to DefaultJournalCap.
func NewJournal(server string, capacity int, now NowFunc) *Journal {
	if capacity < 1 {
		capacity = DefaultJournalCap
	}
	if now == nil {
		now = wallNow
	}
	return &Journal{
		server: server,
		now:    now,
		ring:   make([]Event, capacity),
	}
}

// Server returns the journal owner's name.
func (j *Journal) Server() string {
	if j == nil {
		return ""
	}
	return j.server
}

// next claims the next slot and stamps it; called with j.mu held. The
// stamp is taken inside the lock, so ring order and timestamp order
// agree: a journal's records are non-decreasing in T.
func (j *Journal) next() (*Event, int64) {
	t := j.now()
	j.seq++
	e := &j.ring[j.pos]
	j.pos = (j.pos + 1) % len(j.ring)
	if j.size < len(j.ring) {
		j.size++
	}
	return e, t
}

// Record appends one event, stamping the clock. Copy-in to a
// preallocated slot: no allocation beyond the strings the caller
// already holds.
func (j *Journal) Record(layer, op, kind string, key uint64, arg int64, detail string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	e, t := j.next()
	*e = Event{Seq: j.seq, T: t, Server: j.server, Layer: layer, Op: op, Kind: kind,
		Key: key, Arg: arg, Detail: detail}
	j.mu.Unlock()
}

// recordSpan appends sp's record and returns its end, the record's T.
func (j *Journal) recordSpan(sp *Span) int64 {
	j.mu.Lock()
	e, t := j.next()
	*e = Event{Seq: j.seq, T: t, Server: j.server, Layer: sp.Layer, Op: sp.Op, Kind: SpanKind,
		Key: sp.ID, Arg: t - sp.Start, Detail: sp.Principal, Trace: sp.TraceID, Parent: sp.Parent}
	j.mu.Unlock()
	return t
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Seq returns the total number of events ever recorded, including
// those the ring has since overwritten.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// scan calls fn on every retained record, oldest first, with the ring
// locked: fn must not call back into the journal.
func (j *Journal) scan(fn func(e *Event)) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	start := j.pos - j.size
	if start < 0 {
		start += len(j.ring)
	}
	for i := 0; i < j.size; i++ {
		fn(&j.ring[(start+i)%len(j.ring)])
	}
}

// Events returns a snapshot of the retained events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	out := make([]Event, 0, j.Len())
	j.scan(func(e *Event) { out = append(out, *e) })
	return out
}

// SetJournal enables or disables flight-recorder journals on this
// registry. Disabling makes Journal return nil, and since every
// Journal method is nil-safe the recorder then costs nothing: no
// events and no span records, while spans are still opened, carried
// on the wire and charged to their principals — the knob the
// obs-overhead ablation uses to isolate recorder cost. Call before
// components are wired: they capture the pointer once.
func (r *Registry) SetJournal(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.journalOff = !on
	r.mu.Unlock()
}

// Journal returns the named server's flight-recorder journal,
// creating it on first use on the registry's clock.
func (r *Registry) Journal(server string) *Journal {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	j, off := r.journals[server], r.journalOff
	r.mu.RUnlock()
	if off {
		return nil
	}
	if j != nil {
		return j
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if j = r.journals[server]; j == nil {
		j = NewJournal(server, DefaultJournalCap, r.now)
		r.journals[server] = j
	}
	return j
}

// Journals returns every journal in the registry, sorted by server
// name — the input to timeline reconstruction.
func (r *Registry) Journals() []*Journal {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Journal, 0, len(r.journals))
	for _, name := range sortedKeys(r.journals) {
		out = append(out, r.journals[name])
	}
	return out
}
