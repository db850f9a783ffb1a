package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"frangipani/internal/reuse"
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
// another machine (see Remote). A finished span is one record in the
// journal of the server that opened it.
//
// A live span comes from its tracer's free list and goes back to it in
// Done: whoever
// opened it must not touch it after Done, and nothing else may hold it
// past then. What outlives the span is its record, read back as a Span
// value (End set) by the tracer's readers.
type Span struct {
	TraceID   uint64
	ID        uint64
	Parent    uint64
	Layer     string
	Op        string
	Start     int64  // ns on the tracer's clock
	End       int64  // ns; set only in a span read back from its record
	Principal string // on whose behalf the operation runs; "" is unknown

	tr *Tracer
	jr *Journal // where Done records the span; nil records nothing
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

// Child begins a span under sp, in its trace, for its principal and on
// its server. A nil sp yields nil: sub-layer work (wal flushes, petal
// RPCs, lease checks) only produces spans inside a traced operation, so
// background write-behind traffic does not flood the rings with
// single-span traces.
func (sp *Span) Child(layer, op string) *Span {
	if sp == nil {
		return nil
	}
	return sp.tr.Remote(sp.jr, sp.Ctx(), layer, op)
}

// Done ends the span: it writes the span's record into its server's
// journal, stamped inside the ring's lock like every record, zeroes the
// span and gives it back to its tracer, and returns how long it lasted.
// It is the last use of sp.
func (sp *Span) Done() int64 {
	if sp == nil || sp.tr == nil {
		return 0
	}
	var end int64
	if sp.jr == nil {
		end = sp.tr.reg.now()
	} else {
		end = sp.jr.recordSpan(sp)
	}
	d, t := end-sp.Start, sp.tr
	*sp = Span{}
	t.spans.Put(sp)
	return d
}

// open takes a span from the free list, or a new one, and fills it in.
func (t *Tracer) open(jr *Journal, trace, id, parent uint64, layer, op, principal string) *Span {
	sp, ok := t.spans.Take()
	if !ok {
		sp = new(Span)
	}
	*sp = Span{TraceID: trace, ID: id, Parent: parent, Layer: layer, Op: op,
		Start: t.reg.now(), Principal: principal, tr: t, jr: jr}
	return sp
}

// Tracer hands out span IDs; the spans it opens land in the journals
// of the servers that open them, and its readers reassemble traces from
// the registry's journals.
type Tracer struct {
	reg   *Registry
	ids   atomic.Uint64
	spans reuse.List[*Span] // finished spans, zeroed: Start and Remote take one of them
}

// Start begins a new trace whose root lands in jr (nil: the span exists,
// only its record is skipped). The caller sets Principal before handing
// the span on.
func (t *Tracer) Start(jr *Journal, layer, op string) *Span {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return t.open(jr, id, id, 0, layer, op, "")
}

// Remote begins a span, landing in jr, whose parent is known by its
// context alone — it arrived over the wire — so the receiving side's
// work joins the sender's trace and runs for the sender's principal. A
// zero context (the sender was not inside a traced operation) yields nil.
func (t *Tracer) Remote(jr *Journal, parent Ctx, layer, op string) *Span {
	if t == nil || parent.Trace == 0 {
		return nil
	}
	return t.open(jr, parent.Trace, t.ids.Add(1), parent.Span, layer, op, parent.Principal)
}

// traces reads every span record resident in the registry's journals in
// one pass: the spans grouped by trace, and the root spans, most
// recently finished first.
func (t *Tracer) traces() (byTrace map[uint64][]Span, roots []Span) {
	byTrace = make(map[uint64][]Span)
	if t == nil {
		return byTrace, nil
	}
	for _, j := range t.reg.Journals() {
		j.scan(func(e *Event) {
			if e.Kind != SpanKind {
				return
			}
			sp := e.span()
			byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
			if sp.ID == sp.TraceID {
				roots = append(roots, sp)
			}
		})
	}
	slices.SortFunc(roots, func(a, b Span) int {
		return cmp.Or(cmp.Compare(b.End, a.End), cmp.Compare(b.ID, a.ID))
	})
	return byTrace, roots
}

// LastRoot returns the trace ID of the most recently finished resident
// root span, or 0.
func (t *Tracer) LastRoot() uint64 {
	if _, roots := t.traces(); len(roots) > 0 {
		return roots[0].TraceID
	}
	return 0
}

// SpansFor returns copies of all ring-resident spans of one trace.
func (t *Tracer) SpansFor(traceID uint64) []Span {
	byTrace, _ := t.traces()
	return byTrace[traceID]
}

// Roots returns the trace IDs of finished root spans resident in the
// rings, most recent first, at most max of them (0 means all).
func (t *Tracer) Roots(max int) []uint64 {
	_, roots := t.traces()
	if max > 0 && len(roots) > max {
		roots = roots[:max]
	}
	out := make([]uint64, len(roots))
	for i, r := range roots {
		out[i] = r.TraceID
	}
	return out
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
	spans := t.SpansFor(traceID)
	if len(spans) == 0 {
		return fmt.Sprintf("trace %d: no spans\n", traceID)
	}
	slices.SortFunc(spans, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
	present := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		present[sp.ID] = true
	}
	children := make(map[uint64][]Span)
	var roots []Span
	base := spans[0].Start
	var total int64
	for _, sp := range spans {
		if sp.End-base > total {
			total = sp.End - base
		}
		// A span whose parent is missing from the rings (evicted, or
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
			float64(sp.Start-base)/1e6, float64(sp.End-sp.Start)/1e6)
		for _, ch := range children[sp.ID] {
			walk(ch, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
