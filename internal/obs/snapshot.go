package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// HistStat is the exported summary of one histogram.
type HistStat struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50_ns"`
	P90   int64 `json:"p90_ns"`
	P99   int64 `json:"p99_ns"`
	Max   int64 `json:"max_ns"`
	Sum   int64 `json:"sum_ns"`
}

// Snapshot is a point-in-time copy of every metric in a registry,
// renderable as JSON or text.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistStat       `json:"histograms,omitempty"`
	Resources  map[string][]ResourceStat `json:"resources,omitempty"`
	Accounts   []AccountStat             `json:"accounts,omitempty"`
}

// snapshotTopK bounds the hot locks carried in a snapshot.
const snapshotTopK = 10

// Snapshot captures the current value of every registered metric,
// plus the hot locks the rings hold.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	s.Counters = make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	s.Gauges = make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	s.Histograms = make(map[string]HistStat, len(r.hists))
	for name, h := range r.hists {
		s.Histograms[name] = HistStat{
			Count: h.Count(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
			Max:   h.Max(),
			Sum:   h.Sum(),
		}
	}
	accounts := r.accounts
	r.mu.RUnlock()
	if top := r.HotLocks(snapshotTopK); len(top) > 0 {
		s.Resources = map[string][]ResourceStat{"lockservice.locks": top}
	}
	s.Accounts = accounts.Snapshot()
	return s
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Text renders the snapshot as aligned tables, histograms in
// milliseconds.
func (s Snapshot) Text() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-44s %12d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-44s %12d\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms (ms):\n")
		fmt.Fprintf(&b, "  %-44s %8s %9s %9s %9s %9s\n",
			"name", "count", "p50", "p90", "p99", "max")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			fmt.Fprintf(&b, "  %-44s %8d %9.3f %9.3f %9.3f %9.3f\n",
				name, h.Count,
				float64(h.P50)/1e6, float64(h.P90)/1e6,
				float64(h.P99)/1e6, float64(h.Max)/1e6)
		}
	}
	for _, name := range sortedKeys(s.Resources) {
		b.WriteString(RenderResources("hot resources ("+name+")", s.Resources[name]))
	}
	b.WriteString(RenderAccounts(s.Accounts, Window{}))
	return b.String()
}
