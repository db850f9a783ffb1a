// Package obs is a zero-dependency metrics and tracing layer shared
// by every Frangipani subsystem.
//
// It provides a Registry of race-safe named counters, gauges, and
// log-bucketed latency histograms, one flight-recorder ring (Journal)
// per server, and a Tracer whose spans are propagated through rpc
// message headers so a single file-system operation can be followed
// fs -> wal -> lockservice -> petal across machines. A finished span is
// one record in the ring of the server it ran on, beside that server's
// events; traces, the critical path and the hot locks are read back
// from the rings. The registry is clock-agnostic: simulated runs plug
// in sim.Clock time, TCP deployments use wall time.
//
// Metric names follow the convention "layer.op.metric", with a
// "#instance" suffix when several servers share one registry, e.g.
// "fs.sync.latency#ws1" or "cache.hits#ws1.meta".
//
// All methods are nil-safe: a nil *Registry hands out nil collectors
// and a nil *Tracer hands out nil spans, all of whose methods are
// no-ops, so instrumented code never needs to branch on whether
// observability is wired up.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NowFunc returns the current time in nanoseconds on whatever clock
// the deployment runs on (simulated or wall).
type NowFunc func() int64

// Counter is a monotonically increasing race-safe counter.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a standalone counter not attached to any
// registry. Components that may run unwired (unit tests, bare
// constructors) start with standalone collectors and swap in
// registry-backed ones when observability is attached.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a race-safe instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a standalone gauge (see NewCounter).
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// SetMax raises the gauge to n if n is larger (high-water mark).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds all named metrics for one deployment (one sim
// World, or one process in a TCP deployment) plus its Tracer.
type Registry struct {
	now NowFunc
	tr  *Tracer

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	journals   map[string]*Journal
	namer      Namer
	journalOff bool
	accounts   *AccountTable
	acctOff    bool
}

// NewRegistry builds a registry on the given clock. A nil now means
// wall time.
func NewRegistry(now NowFunc) *Registry {
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	r := &Registry{
		now:      now,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		journals: make(map[string]*Journal),
	}
	r.tr = &Tracer{reg: r}
	return r
}

// Now returns the registry's notion of current time in nanoseconds.
// On a nil registry it falls back to wall time.
func (r *Registry) Now() int64 {
	if r == nil {
		return time.Now().UnixNano()
	}
	return r.now()
}

// Tracer returns the registry's span tracer (nil on a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

// named returns the collector m (one of r's maps) holds under name,
// making it with mk on first use.
func named[V any](r *Registry, m map[string]*V, name string, mk func() *V) *V {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return named(r, r.counters, name, NewCounter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return named(r, r.gauges, name, NewGauge)
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return named(r, r.hists, name, NewHistogram)
}

// SetNamer installs the function that renders entity keys for humans
// in the registry's reports (the hot-lock table: "inode/7").
func (r *Registry) SetNamer(n Namer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.namer = n
	r.mu.Unlock()
}

// Accounts returns the registry's per-principal account table,
// creating it on first use. Returns nil when
// accounting is disabled (SetAccounting) — every AccountTable method
// is nil-safe, so the ablation knob costs callers nothing.
func (r *Registry) Accounts() *AccountTable {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t, off := r.accounts, r.acctOff
	r.mu.RUnlock()
	if off {
		return nil
	}
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.accounts == nil {
		r.accounts = NewAccountTable()
	}
	return r.accounts
}

// SetAccounting enables or disables per-principal accounting.
// Disabling makes Accounts return nil. Call before components are
// wired: they capture the pointer once at construction.
func (r *Registry) SetAccounting(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.acctOff = !on
	r.mu.Unlock()
}

// names returns the sorted metric names of one kind, for snapshots.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
