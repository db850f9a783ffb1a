package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// CritPath aggregates completed span trees into a critical-path
// profile: for every root operation ("fs.sync", "fs.write", ...) it
// attributes the root's wall time to per-"layer.op" self-time — the
// part of a span's duration not covered by its children. Overlap
// between concurrent siblings (pipelined flush workers) is attributed
// to the earliest-starting sibling, so self-time partitions each tree
// exactly: the attributed total equals the root duration, answering
// "where does a Sync go" without double counting parallel work.
type CritPath struct {
	roots map[string]*rootProfile
}

type rootProfile struct {
	count   int64
	totalNs int64
	attrNs  int64
	self    map[string]*Histogram // per "layer.op" self-time per trace; Sum is the total
}

// NewCritPath returns an empty profile.
func NewCritPath() *CritPath {
	return &CritPath{roots: make(map[string]*rootProfile)}
}

// PathEntry is one row of a profile: a layer.op and its share of the
// root operation's latency.
type PathEntry struct {
	Name    string  `json:"name"`
	SelfNs  int64   `json:"self_ns"`
	Percent float64 `json:"percent"`
	P50     int64   `json:"p50_ns"`
	P99     int64   `json:"p99_ns"`
}

// AddTracer feeds the profile from the span records resident in the
// tracer's registry's rings: the up-to-max most recently finished root
// traces (0 means all resident), read in one pass over the rings.
func (cp *CritPath) AddTracer(tr *Tracer, max int) {
	byTrace, roots := tr.traces()
	if max > 0 && len(roots) > max {
		roots = roots[:max]
	}
	for _, r := range roots {
		cp.AddTrace(byTrace[r.TraceID])
	}
}

// AddTrace attributes one completed trace. Spans whose parent is
// absent from the slice (evicted from its ring, or recorded by another
// process's tracer) are skipped: without the parent they
// would double-count time the parent's own spans already cover.
func (cp *CritPath) AddTrace(spans []Span) {
	if cp == nil || len(spans) == 0 {
		return
	}
	var root *Span
	byParent := make(map[uint64][]*Span)
	for i := range spans {
		sp := &spans[i]
		if sp.ID == sp.TraceID {
			root = sp
		} else {
			byParent[sp.Parent] = append(byParent[sp.Parent], sp)
		}
	}
	if root == nil || root.End < root.Start {
		return
	}
	rootOp := root.Layer + "." + root.Op
	rp := cp.roots[rootOp]
	if rp == nil {
		rp = &rootProfile{self: make(map[string]*Histogram)}
		cp.roots[rootOp] = rp
	}
	rp.count++
	rp.totalNs += root.End - root.Start
	selfOnce := make(map[string]int64) // self-time within this trace

	var walk func(sp *Span, lo, hi int64)
	walk = func(sp *Span, lo, hi int64) {
		// Clip the span to its parent's window so time outside the
		// parent (a child outliving a background-completed parent)
		// never inflates attribution past the root's duration.
		s, e := max(sp.Start, lo), min(sp.End, hi)
		if e <= s {
			return
		}
		kids := byParent[sp.ID]
		// Sort children by start and attribute each instant covered by
		// several concurrent siblings to the earliest-starting one: each
		// child's effective window begins where its predecessors' claims
		// end. A child fully shadowed by an earlier sibling contributes
		// nothing (its time is already that sibling's).
		slices.SortFunc(kids, func(a, b *Span) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
		})
		covered := int64(0)
		claimed := s // high-water mark of sibling claims
		for _, k := range kids {
			ks, ke := max(k.Start, claimed), min(k.End, e)
			if ke <= ks {
				continue
			}
			covered += ke - ks
			claimed = ke
			walk(k, ks, ke)
		}
		self := (e - s) - covered
		if self > 0 {
			selfOnce[sp.Layer+"."+sp.Op] += self
			rp.attrNs += self
		}
	}
	walk(root, root.Start, root.End)

	for name, ns := range selfOnce {
		h := rp.self[name]
		if h == nil {
			h = NewHistogram()
			rp.self[name] = h
		}
		h.Record(ns)
	}
}

// RootOps returns the root operations seen, sorted by accumulated
// wall time, largest first.
func (cp *CritPath) RootOps() []string {
	if cp == nil {
		return nil
	}
	ops := make([]string, 0, len(cp.roots))
	for op := range cp.roots {
		ops = append(ops, op)
	}
	slices.SortFunc(ops, func(a, b string) int {
		return cmp.Or(cmp.Compare(cp.roots[b].totalNs, cp.roots[a].totalNs), cmp.Compare(a, b))
	})
	return ops
}

// Profile returns the per-layer.op breakdown of one root operation,
// largest self-time first. Percentages are of the root's total wall
// time.
func (cp *CritPath) Profile(rootOp string) []PathEntry {
	if cp == nil {
		return nil
	}
	rp := cp.roots[rootOp]
	if rp == nil {
		return nil
	}
	out := make([]PathEntry, 0, len(rp.self))
	for name, h := range rp.self {
		e := PathEntry{Name: name, SelfNs: h.Sum(), P50: h.Quantile(0.5), P99: h.Quantile(0.99)}
		if rp.totalNs > 0 {
			e.Percent = float64(e.SelfNs) / float64(rp.totalNs) * 100
		}
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b PathEntry) int {
		return cmp.Or(cmp.Compare(b.SelfNs, a.SelfNs), cmp.Compare(a.Name, b.Name))
	})
	return out
}

// Coverage reports the fraction (0..1) of the root op's accumulated
// wall time attributed to named layer.op buckets. Anything below 1.0
// is ring eviction (partial traces) — the decomposition itself is
// exact.
func (cp *CritPath) Coverage(rootOp string) float64 {
	if cp == nil {
		return 0
	}
	rp := cp.roots[rootOp]
	if rp == nil || rp.totalNs == 0 {
		return 0
	}
	return float64(rp.attrNs) / float64(rp.totalNs)
}

// Count returns how many traces of the root op were aggregated.
func (cp *CritPath) Count(rootOp string) int64 {
	if cp == nil || cp.roots[rootOp] == nil {
		return 0
	}
	return cp.roots[rootOp].count
}

// MeanNs returns the mean root latency of the root op.
func (cp *CritPath) MeanNs(rootOp string) int64 {
	if cp == nil {
		return 0
	}
	rp := cp.roots[rootOp]
	if rp == nil || rp.count == 0 {
		return 0
	}
	return rp.totalNs / rp.count
}

// Report renders the whole profile — the "where does a Sync go"
// answer — one section per root op:
//
//	fs.sync — 12 ops, mean 38.1ms, 99.8% attributed
//	  wal.flush                 41.2%    15.7ms   p50 1.2ms  p99 2.9ms
//	  petal.write               33.0%    12.6ms   p50 0.9ms  p99 2.1ms
//	  ...
func (cp *CritPath) Report() string {
	if cp == nil {
		return ""
	}
	var b strings.Builder
	for _, op := range cp.RootOps() {
		rp := cp.roots[op]
		fmt.Fprintf(&b, "%s — %d ops, mean %.3fms, %.1f%% attributed\n",
			op, rp.count, float64(cp.MeanNs(op))/1e6, cp.Coverage(op)*100)
		for _, e := range cp.Profile(op) {
			fmt.Fprintf(&b, "  %-28s %6.1f%% %10.3fms   p50 %.3fms  p99 %.3fms\n",
				e.Name, e.Percent, float64(e.SelfNs)/1e6,
				float64(e.P50)/1e6, float64(e.P99)/1e6)
		}
	}
	return b.String()
}
