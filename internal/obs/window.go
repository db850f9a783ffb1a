package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Window is one interval's worth of activity, computed as the delta
// between two registry snapshots: counter rates instead of cumulative
// totals, and per-window histogram stats (the p99 of the last second,
// not of all time).
type Window struct {
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Rates holds counter deltas per second of the window.
	Rates map[string]float64 `json:"rates,omitempty"`
	// Hists holds per-window histogram stats. Max is approximate (the
	// upper bound of the window's highest occupied bucket, clamped to
	// the cumulative max).
	Hists map[string]HistStat `json:"histograms,omitempty"`
	// Gauges are instantaneous values at the window's end.
	Gauges map[string]int64 `json:"gauges,omitempty"`
}

// Seconds returns the window length in seconds.
func (w Window) Seconds() float64 { return float64(w.End-w.Start) / 1e9 }

// histCounts is the raw state of one histogram at a point in time.
type histCounts struct {
	buckets [numBuckets]int64
	count   int64
	sum     int64
}

// windowStat summarizes what a histogram recorded between two copies of
// its counts, from the bucket deltas. The window's max is the upper
// bound of its highest occupied bucket, clamped to cumMax, the
// histogram's cumulative max. ok is false for an empty window.
func windowStat(prev, cur *histCounts, cumMax int64) (st HistStat, ok bool) {
	dcount := cur.count - prev.count
	if dcount <= 0 {
		return st, false
	}
	var delta [numBuckets]int64
	var maxB int
	for i := range cur.buckets {
		if d := cur.buckets[i] - prev.buckets[i]; d > 0 {
			delta[i] = d
			maxB = i
		}
	}
	_, hi := BucketBounds(maxB)
	wmax := min(hi-1, cumMax)
	return HistStat{
		Count: dcount,
		P50:   quantileOf(delta[:], dcount, 0.50, wmax),
		P90:   quantileOf(delta[:], dcount, 0.90, wmax),
		P99:   quantileOf(delta[:], dcount, 0.99, wmax),
		Max:   wmax,
		Sum:   cur.sum - prev.sum,
	}, true
}

// WindowRing turns a registry's cumulative metrics into a bounded
// ring of interval windows. Call Advance at the cadence you want
// (1 s for a live watch, one tick per benchmark phase, ...); each
// call closes the interval since the previous one. The ring keeps
// the newest capacity windows.
type WindowRing struct {
	reg *Registry
	cap int

	mu    sync.Mutex
	prevT int64
	prevC map[string]int64
	prevH map[string]histCounts
	wins  []Window
}

// NewWindowRing starts a ring over reg holding up to capacity
// windows. The interval clock starts now; the first Advance closes
// the first window.
func NewWindowRing(reg *Registry, capacity int) *WindowRing {
	if capacity < 1 {
		capacity = 1
	}
	w := &WindowRing{reg: reg, cap: capacity}
	w.mu.Lock()
	w.prevT, w.prevC, w.prevH = w.captureLocked()
	w.mu.Unlock()
	return w
}

func (w *WindowRing) captureLocked() (int64, map[string]int64, map[string]histCounts) {
	now := w.reg.Now()
	cs := make(map[string]int64)
	hs := make(map[string]histCounts)
	if w.reg != nil {
		w.reg.mu.RLock()
		for name, c := range w.reg.counters {
			cs[name] = c.Value()
		}
		for name, h := range w.reg.hists {
			var hc histCounts
			hc.buckets, hc.count, hc.sum = h.counts()
			hs[name] = hc
		}
		w.reg.mu.RUnlock()
	}
	return now, cs, hs
}

// Advance closes the interval since the previous Advance (or since
// construction), appends the resulting window to the ring, and
// returns it. Zero-length intervals yield zero rates rather than
// dividing by zero.
func (w *WindowRing) Advance() Window {
	if w == nil {
		return Window{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	now, cs, hs := w.captureLocked()
	win := Window{Start: w.prevT, End: now}
	secs := win.Seconds()
	win.Rates = make(map[string]float64)
	for name, v := range cs {
		d := v - w.prevC[name]
		if d < 0 {
			d = 0 // counter recreated; treat as fresh
		}
		if secs > 0 {
			win.Rates[name] = float64(d) / secs
		} else {
			win.Rates[name] = 0
		}
	}
	win.Hists = make(map[string]HistStat)
	for name, cur := range hs {
		prev := w.prevH[name]
		if st, ok := windowStat(&prev, &cur, w.reg.Histogram(name).Max()); ok {
			win.Hists[name] = st
		}
	}
	win.Gauges = make(map[string]int64)
	if w.reg != nil {
		w.reg.mu.RLock()
		for name, g := range w.reg.gauges {
			win.Gauges[name] = g.Value()
		}
		w.reg.mu.RUnlock()
	}
	w.prevT, w.prevC, w.prevH = now, cs, hs
	w.wins = append(w.wins, win)
	if len(w.wins) > w.cap {
		w.wins = w.wins[len(w.wins)-w.cap:]
	}
	return win
}

// Last returns the most recently closed window.
func (w *WindowRing) Last() (Window, bool) {
	if w == nil {
		return Window{}, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.wins) == 0 {
		return Window{}, false
	}
	return w.wins[len(w.wins)-1], true
}

// Windows returns the retained windows, oldest first.
func (w *WindowRing) Windows() []Window {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Window(nil), w.wins...)
}

// Text renders one window as aligned rate/latency tables, skipping
// idle metrics so a live watch shows only what is moving.
func (win Window) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "window %.2fs\n", win.Seconds())
	var active []string
	for name, r := range win.Rates {
		if r > 0 {
			active = append(active, name)
		}
	}
	if len(active) > 0 {
		sort.Strings(active)
		b.WriteString("rates (/s):\n")
		for _, name := range active {
			fmt.Fprintf(&b, "  %-44s %12.1f\n", name, win.Rates[name])
		}
	}
	if len(win.Hists) > 0 {
		b.WriteString("latencies this window (ms):\n")
		fmt.Fprintf(&b, "  %-44s %8s %9s %9s %9s\n", "name", "count", "p50", "p99", "max")
		for _, name := range sortedKeys(win.Hists) {
			h := win.Hists[name]
			fmt.Fprintf(&b, "  %-44s %8d %9.3f %9.3f %9.3f\n",
				name, h.Count,
				float64(h.P50)/1e6, float64(h.P99)/1e6, float64(h.Max)/1e6)
		}
	}
	return b.String()
}
