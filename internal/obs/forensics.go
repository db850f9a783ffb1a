package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// Filter selects a slice of the merged timeline. Zero values match
// everything, so Filter{} is "the whole record".
type Filter struct {
	Key    uint64 // entity key (lock id, inode, chunk); 0 = any; span records never match one
	Since  int64  // only events with T >= Since; 0 = any
	Layer  string // "lockservice", "wal", ...; "" = any
	Server string // journal owner; "" = any
}

func (f Filter) match(e Event) bool {
	if f.Key != 0 && (e.Key != f.Key || e.Kind == SpanKind) {
		return false
	}
	if f.Since != 0 && e.T < f.Since {
		return false
	}
	if f.Layer != "" && e.Layer != f.Layer {
		return false
	}
	if f.Server != "" && e.Server != f.Server {
		return false
	}
	return true
}

// MergeTimeline reconstructs one cross-server timeline from the given
// journals. The merge orders events by timestamp but NEVER reorders
// two events from the same journal: each step takes the earliest
// journal head, so per-server program order — the only causal
// guarantee we have when per-server clocks are skewed — is preserved
// even where timestamps disagree with it.
func MergeTimeline(journals []*Journal, f Filter) []Event {
	heads := make([][]Event, 0, len(journals))
	total := 0
	for _, j := range journals {
		evs := j.Events()
		// Filter per journal before merging: dropping events cannot
		// break per-journal order.
		kept := evs[:0]
		for _, e := range evs {
			if f.match(e) {
				kept = append(kept, e)
			}
		}
		if len(kept) > 0 {
			heads = append(heads, kept)
			total += len(kept)
		}
	}
	out := make([]Event, 0, total)
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			hi, hb := heads[i][0], heads[best][0]
			if hi.T < hb.T || (hi.T == hb.T && hi.Server < hb.Server) {
				best = i
			}
		}
		out = append(out, heads[best][0])
		heads[best] = heads[best][1:]
		if len(heads[best]) == 0 {
			heads = append(heads[:best], heads[best+1:]...)
		}
	}
	return out
}

// Namer renders an entity key for humans (e.g. fs.LockName for the
// lockservice layer). May be nil.
type Namer func(layer string, key uint64) string

// RenderTimeline formats a merged timeline as one annotated line per
// event, timestamps relative to the first event shown. A span record
// shows its trace as the entity and its principal and duration as the
// detail.
func RenderTimeline(events []Event, namer Namer) string {
	if len(events) == 0 {
		return "(no events recorded)\n"
	}
	base := events[0].T
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %-24s %-10s %-18s %s\n",
		"t(+ms)", "server", "layer.op", "kind", "entity", "detail")
	for _, e := range events {
		ent, detail := "", e.Detail
		switch {
		case e.Kind == SpanKind:
			ent = fmt.Sprintf("trace %#x", e.Trace)
			detail = fmt.Sprintf("%s %.3fms", e.Detail, float64(e.Arg)/1e6)
		case e.Key != 0 && namer != nil:
			ent = namer(e.Layer, e.Key)
		case e.Key != 0:
			ent = fmt.Sprintf("%#x", e.Key)
		}
		if e.Arg != 0 && e.Kind != SpanKind {
			if detail != "" {
				detail = fmt.Sprintf("%s arg=%d", detail, e.Arg)
			} else {
				detail = fmt.Sprintf("arg=%d", e.Arg)
			}
		}
		fmt.Fprintf(&b, "%+12.3f %-8s %-24s %-10s %-18s %s\n",
			float64(e.T-base)/1e6, e.Server, e.Layer+"."+e.Op, e.Kind,
			ent, strings.TrimSpace(detail))
	}
	return b.String()
}

// ResourceStat is one lock's contention as the rings remember it.
type ResourceStat struct {
	ID       uint64 `json:"id"`
	Name     string `json:"name,omitempty"` // the registry namer's, or hex
	Acquires int64  `json:"acquires"`       // acquires that waited for the lock service
	WaitNs   int64  `json:"wait_ns"`
	Events   int64  `json:"events"` // revokes received
}

// HotLocks ranks the locks the clerks' records in the rings name,
// hottest first, at most k of them: an "acquire ok|fail" record (Key the
// lock, Arg the wait) is one acquire that waited, a "revoke recv" record
// one revoke. Heat is wait, then revokes, then acquires; names come from
// the registry's namer. The ranking covers the rings' window, not the
// time since boot.
func (r *Registry) HotLocks(k int) []ResourceStat {
	if r == nil || k <= 0 {
		return nil
	}
	byLock := make(map[uint64]ResourceStat)
	for _, j := range r.Journals() {
		j.scan(func(e *Event) {
			if e.Layer != "lockservice" {
				return
			}
			st := byLock[e.Key]
			switch {
			case e.Op == "acquire" && (e.Kind == "ok" || e.Kind == "fail"):
				st.Acquires++
				st.WaitNs += max(e.Arg, 0)
			case e.Op == "revoke" && e.Kind == "recv":
				st.Events++
			default:
				return
			}
			st.ID = e.Key
			byLock[e.Key] = st
		})
	}
	r.mu.RLock()
	namer := r.namer
	r.mu.RUnlock()
	out := make([]ResourceStat, 0, len(byLock))
	for _, st := range byLock {
		st.Name = fmt.Sprintf("%#x", st.ID)
		if namer != nil {
			st.Name = namer("lockservice", st.ID)
		}
		out = append(out, st)
	}
	slices.SortFunc(out, func(a, b ResourceStat) int {
		return cmp.Or(cmp.Compare(b.WaitNs, a.WaitNs), cmp.Compare(b.Events, a.Events),
			cmp.Compare(b.Acquires, a.Acquires), cmp.Compare(a.ID, b.ID))
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// RenderResources renders a top-K table ("hot locks" style), wait in
// milliseconds.
func RenderResources(title string, stats []ResourceStat) string {
	if len(stats) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n  %-28s %10s %12s %8s\n", title, "resource", "acquires", "wait (ms)", "events")
	for _, st := range stats {
		fmt.Fprintf(&b, "  %-28s %10d %12.3f %8d\n",
			st.Name, st.Acquires, float64(st.WaitNs)/1e6, st.Events)
	}
	return b.String()
}

// ForensicsDump is the JSON artifact a failed experiment assertion
// writes and frangicli's `forensics json` prints: the merged timeline
// plus whatever state the caller attaches. Schema is versioned so CI
// consumers can evolve.
type ForensicsDump struct {
	Schema    string        `json:"schema"` // "frangipani-forensics/v1"
	TakenAtNs int64         `json:"taken_at_ns"`
	Reason    string        `json:"reason,omitempty"`
	Servers   []string      `json:"servers,omitempty"`
	Events    []Event       `json:"events"`
	Health    *HealthReport `json:"health,omitempty"`
	Anomalies []Anomaly     `json:"anomalies,omitempty"`
}

// ForensicsSchema is the current ForensicsDump schema tag.
const ForensicsSchema = "frangipani-forensics/v1"

// JSON renders the dump with stable indentation.
func (d ForensicsDump) JSON() string {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b) + "\n"
}
