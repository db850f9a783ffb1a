package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed region of a trace, and the handle of the operation
// it belongs to: the root is opened where the operation enters the
// system and passed down explicitly, each layer that times its part
// opening a Child of what it was handed. Nothing is ambient — work that
// was handed no span (a nil *Span: background flushing, prefetch, lease
// renewal) opens none and is accounted to UnknownPrincipal. All methods
// are safe on a nil receiver.
//
// A root span has ID == TraceID; children share the root's TraceID and
// Principal and point at their parent's ID, which may be a span on
// another machine (see Remote).
type Span struct {
	TraceID   uint64
	ID        uint64
	Parent    uint64
	Layer     string
	Op        string
	Start     int64  // ns on the tracer's clock
	End       int64  // ns; 0 until Done
	Principal string // on whose behalf the operation runs; "" is unknown

	tr *Tracer
}

// Ctx is what a span puts on the wire so the receiving side can join
// its trace and account its work: the zero value is "no operation".
type Ctx struct {
	Trace, Span uint64
	Principal   string
}

// Ctx returns the span's wire context.
func (sp *Span) Ctx() Ctx {
	if sp == nil {
		return Ctx{}
	}
	return Ctx{Trace: sp.TraceID, Span: sp.ID, Principal: sp.Principal}
}

// Child begins a span under sp, in its trace and for its principal. A
// nil sp yields nil: sub-layer work (wal flushes, petal RPCs, lease
// checks) only produces spans inside a traced operation, so background
// write-behind traffic does not flood the ring with single-span traces.
func (sp *Span) Child(layer, op string) *Span {
	if sp == nil {
		return nil
	}
	return sp.tr.Remote(sp.Ctx(), layer, op)
}

// Duration is End-Start; valid after Done.
func (sp *Span) Duration() int64 {
	if sp == nil {
		return 0
	}
	return sp.End - sp.Start
}

// Done stamps the end time and records the span into the tracer's
// ring. If the span is a trace root and the whole trace took at
// least the slow-op threshold, a rendered dump of the tree is kept.
func (sp *Span) Done() {
	if sp == nil || sp.tr == nil {
		return
	}
	t := sp.tr
	sp.End = t.now()
	t.mu.Lock()
	t.ring[t.pos] = *sp
	t.pos = (t.pos + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	}
	if sp.ID == sp.TraceID {
		t.lastRoot = sp.TraceID
		if thr := t.slow.Load(); thr > 0 && sp.Duration() >= thr {
			dump := t.renderLocked(sp.TraceID)
			// Bound each retained dump: a pathological trace can have
			// thousands of ring-resident spans, and maxSlowDumps of
			// those must not pin megabytes.
			if len(dump) > maxDumpBytes {
				dump = dump[:maxDumpBytes] + "\n  ... (dump truncated)\n"
			}
			t.dumps = append(t.dumps, dump)
			if len(t.dumps) > maxSlowDumps {
				t.dumps = t.dumps[len(t.dumps)-maxSlowDumps:]
			}
		}
	}
	t.mu.Unlock()
}

const (
	ringSpans    = 8192
	maxSlowDumps = 16
	maxDumpBytes = 16 << 10 // per-dump cap; total dump memory <= 16*16 KB
)

// Tracer allocates span IDs and collects completed spans in a ring
// buffer for rendering.
type Tracer struct {
	now  NowFunc
	ids  atomic.Uint64
	slow atomic.Int64 // ns threshold for slow-op dumps; 0 = off

	mu       sync.Mutex
	ring     []Span
	pos      int
	size     int
	lastRoot uint64
	dumps    []string
}

func newTracer(now NowFunc) *Tracer {
	return &Tracer{now: now, ring: make([]Span, ringSpans)}
}

// SetSlowThreshold enables slow-op dumps for root spans lasting at
// least d (0 disables).
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t != nil {
		t.slow.Store(int64(d))
	}
}

// Start begins a new trace: the returned span is its root. The caller
// sets Principal before handing the span on.
func (t *Tracer) Start(layer, op string) *Span {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &Span{TraceID: id, ID: id, Layer: layer, Op: op, Start: t.now(), tr: t}
}

// Remote begins a span whose parent is known by its context alone — it
// arrived over the wire — so the receiving side's work joins the
// sender's trace and runs for the sender's principal. A zero context
// (the sender was not inside a traced operation) yields nil.
func (t *Tracer) Remote(parent Ctx, layer, op string) *Span {
	if t == nil || parent.Trace == 0 {
		return nil
	}
	return &Span{TraceID: parent.Trace, ID: t.ids.Add(1), Parent: parent.Span, Layer: layer, Op: op,
		Start: t.now(), Principal: parent.Principal, tr: t}
}

// LastRoot returns the trace ID of the most recently completed root
// span, or 0.
func (t *Tracer) LastRoot() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastRoot
}

// SpansFor returns copies of all ring-resident spans of one trace.
func (t *Tracer) SpansFor(traceID uint64) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for i := 0; i < t.size; i++ {
		if t.ring[i].TraceID == traceID {
			out = append(out, t.ring[i])
		}
	}
	return out
}

// Roots returns the trace IDs of completed root spans resident in
// the ring, most recent first, at most max of them (0 means all).
// It feeds the critical-path analyzer: every returned trace has its
// root's full interval available for attribution.
func (t *Tracer) Roots(max int) []uint64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []uint64
	// Walk the ring newest to oldest: pos-1 is the most recent write.
	for i := 0; i < t.size; i++ {
		idx := (t.pos - 1 - i + len(t.ring)) % len(t.ring)
		sp := t.ring[idx]
		if sp.ID == sp.TraceID && sp.ID != 0 {
			out = append(out, sp.TraceID)
			if max > 0 && len(out) >= max {
				break
			}
		}
	}
	return out
}

// SlowDumps returns the retained slow-op trace dumps, oldest first.
func (t *Tracer) SlowDumps() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.dumps...)
}

// RenderTrace renders one trace's span tree as indented text:
//
//	trace 42 (total 12.3ms)
//	  fs.sync             +0.000ms  12.300ms
//	    wal.flush         +0.100ms   2.000ms
//
// Columns are offset from the trace root's start and span duration.
func (t *Tracer) RenderTrace(traceID uint64) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.renderLocked(traceID)
}

func (t *Tracer) renderLocked(traceID uint64) string {
	var spans []Span
	for i := 0; i < t.size; i++ {
		if t.ring[i].TraceID == traceID {
			spans = append(spans, t.ring[i])
		}
	}
	if len(spans) == 0 {
		return fmt.Sprintf("trace %d: no spans\n", traceID)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	present := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		present[sp.ID] = true
	}
	children := make(map[uint64][]Span)
	var roots []Span
	base := spans[0].Start
	var total int64
	for _, sp := range spans {
		if sp.Start < base {
			base = sp.Start
		}
		if sp.End-base > total {
			total = sp.End - base
		}
		// A span whose parent is missing from the ring (evicted, or
		// recorded by another process) renders as a top-level subtree.
		if sp.Parent != 0 && present[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d (total %.3fms, %d spans)\n",
		traceID, float64(total)/1e6, len(spans))
	var walk func(sp Span, depth int)
	walk = func(sp Span, depth int) {
		name := sp.Layer + "." + sp.Op
		fmt.Fprintf(&b, "  %s%-*s +%.3fms  %.3fms\n",
			strings.Repeat("  ", depth), 28-2*depth, name,
			float64(sp.Start-base)/1e6, float64(sp.Duration())/1e6)
		for _, ch := range children[sp.ID] {
			walk(ch, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
