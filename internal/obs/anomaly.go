package obs

import (
	"fmt"
	"sync"
)

// The watcher's thresholds.
const (
	// anomalyFactor is the multiple of the trailing baseline that fires
	// an anomaly: a rate or p99 4x its recent self.
	anomalyFactor = 4
	// minRate suppresses rate anomalies below this many events/s: a
	// counter going 0 -> 2/s is noise, not a spike, and flat-zero
	// metrics must not fire on their first blip.
	minRate = 10
	// minP99Ns suppresses latency anomalies below this p99: microsecond
	// jitter on an idle histogram is not a spike.
	minP99Ns = 1e6
	// noisyShare is the fraction of a window's total bytes (or
	// lock-wait) one principal must exceed to qualify as a hog.
	noisyShare = 0.5
	// minNoisyBytes suppresses noisy-neighbor verdicts on windows moving
	// fewer total bytes than this: dominating a near-idle window is not
	// hogging anything.
	minNoisyBytes = 1 << 20
)

// Anomaly is one fired annotation: a metric whose current window
// value exceeded anomalyFactor x its trailing baseline.
type Anomaly struct {
	Metric   string  `json:"metric"`
	Kind     string  `json:"kind"` // "rate" or "p99"
	Value    float64 `json:"value"`
	Baseline float64 `json:"baseline"`
	AtNs     int64   `json:"at_ns"`
}

// trail is one metric's trailing baseline: a small ring of recent
// window values plus a firing latch so a sustained spike annotates
// the journal once, on the crossing, not once per window.
type trail struct {
	vals   []float64
	pos    int
	n      int
	firing bool
}

func (t *trail) mean() float64 {
	if t.n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < t.n; i++ {
		s += t.vals[i]
	}
	return s / float64(t.n)
}

func (t *trail) push(v float64) {
	t.vals[t.pos] = v
	t.pos = (t.pos + 1) % len(t.vals)
	if t.n < len(t.vals) {
		t.n++
	}
}

// AnomalyWatcher observes closed WindowRing windows and self-marks
// spikes in the flight record: when a counter's rate or a histogram's
// per-window p99 exceeds anomalyFactor x its own trailing baseline, it
// records an "obs.anomaly" journal event, so the merged timeline shows
// *when the metrics went strange* in between the discrete protocol
// events. The same window's accounts are judged for noisy neighbors.
type AnomalyWatcher struct {
	jr       *Journal
	baseline int

	mu     sync.Mutex
	trails map[string]*trail
}

// NewAnomalyWatcher builds a watcher that annotates jr (may be nil for
// a watcher that only returns what fires). baseline is how many
// trailing windows form each metric's baseline and, doubling as
// warm-up, how many must be observed before a metric is judged at all
// (at least 2) — the first window of a fresh cluster is never an
// anomaly, it is the baseline being born.
func NewAnomalyWatcher(jr *Journal, baseline int) *AnomalyWatcher {
	return &AnomalyWatcher{
		jr:       jr,
		baseline: max(baseline, 2),
		trails:   make(map[string]*trail),
	}
}

// Observe judges one closed window against each metric's and each
// principal's trailing baseline, updates the baselines, and returns
// (and journals) the anomalies and noisy-neighbor verdicts that fired.
// Call it after WindowRing.Advance with the window it returned. An
// empty window (no rates, no histograms, no accounts) is a no-op: it
// neither fires nor disturbs the baselines.
func (w *AnomalyWatcher) Observe(win Window) ([]Anomaly, []NoisyNeighbor) {
	if w == nil || (len(win.Rates) == 0 && len(win.Hists) == 0 && len(win.Accounts) == 0) {
		return nil, nil
	}
	var out []Anomaly
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, name := range sortedKeys(win.Rates) {
		if a, ok := w.judgeLocked("rate:"+name, win.Rates[name], minRate); ok {
			out = append(out, Anomaly{Metric: name, Kind: "rate",
				Value: a.v, Baseline: a.base, AtNs: win.End})
		}
	}
	for _, name := range sortedKeys(win.Hists) {
		p99 := float64(win.Hists[name].P99)
		if a, ok := w.judgeLocked("p99:"+name, p99, minP99Ns); ok {
			out = append(out, Anomaly{Metric: name, Kind: "p99",
				Value: a.v, Baseline: a.base, AtNs: win.End})
		}
	}
	for _, a := range out {
		w.jr.Record("obs", "anomaly", a.Kind, 0, int64(a.Value),
			fmt.Sprintf("%s %.1f vs baseline %.1f", a.Metric, a.Value, a.Baseline))
	}
	return out, w.noisyLocked(win)
}

type verdict struct{ v, base float64 }

// judgeLocked compares one value against its trailing baseline and
// pushes it into the trail. Warm-up (fewer than baseline prior
// observations) and sub-floor values never fire; a zero baseline
// (flat-zero history) fires only above the floor — the floor IS the
// baseline for a metric that has never moved.
func (w *AnomalyWatcher) judgeLocked(key string, v, floor float64) (verdict, bool) {
	t := w.trails[key]
	if t == nil {
		t = &trail{vals: make([]float64, w.baseline)}
		w.trails[key] = t
	}
	base := t.mean()
	warm := t.n >= w.baseline
	t.push(v)
	if !warm || v < floor {
		t.firing = false
		return verdict{}, false
	}
	threshold := base * anomalyFactor
	if threshold < floor {
		threshold = floor
	}
	if v < threshold {
		t.firing = false
		return verdict{}, false
	}
	if t.firing {
		return verdict{}, false // still the same sustained spike
	}
	t.firing = true
	return verdict{v: v, base: base}, true
}

// NoisyNeighbor is one fired noisy-neighbor verdict: the hog held
// more than noisyShare of the window's bytes or lock-wait while the
// victim's per-window op p99 spiked above its own trailing baseline.
type NoisyNeighbor struct {
	Kind        string  `json:"kind"` // "bytes" or "lockwait"
	Hog         string  `json:"hog"`
	Share       float64 `json:"share"`
	Victim      string  `json:"victim"`
	VictimP99Ns int64   `json:"victim_p99_ns"`
	AtNs        int64   `json:"at_ns"`
}

// noisyLocked judges a window's accounts for noisy-neighbor
// interference: correlation of a dominant principal with another
// principal's latency excursion. The victim's window p99 is judged
// against its own trailing baseline with the same factor/warm-up
// machinery as metric anomalies, so a reader that is always slow never
// indicts a writer that is always busy — only the *change* does. Fired
// verdicts are journaled as "obs.noisyneighbor" events so they land in
// the merged forensics timeline.
func (w *AnomalyWatcher) noisyLocked(win Window) []NoisyNeighbor {
	// Judge every principal's window p99 first (baselines must advance
	// every window, spike or not).
	excursions := make(map[string]int64)
	var totBytes, totWait int64
	for _, st := range win.Accounts {
		if _, ok := w.judgeLocked("acct-p99:"+st.Principal, float64(st.OpP99Ns), minP99Ns); ok {
			excursions[st.Principal] = st.OpP99Ns
		}
		totBytes += st.Bytes()
		totWait += st.LockWaitNs
	}
	if len(excursions) == 0 {
		return nil
	}
	var out []NoisyNeighbor
	for _, st := range win.Accounts {
		var hogs []NoisyNeighbor
		if totBytes >= minNoisyBytes {
			if share := float64(st.Bytes()) / float64(totBytes); share > noisyShare {
				hogs = append(hogs, NoisyNeighbor{Kind: "bytes", Hog: st.Principal, Share: share})
			}
		}
		if totWait > 0 {
			if share := float64(st.LockWaitNs) / float64(totWait); share > noisyShare {
				hogs = append(hogs, NoisyNeighbor{Kind: "lockwait", Hog: st.Principal, Share: share})
			}
		}
		for _, hog := range hogs {
			for _, victim := range sortedKeys(excursions) {
				if victim == hog.Hog {
					continue
				}
				nn := hog
				nn.Victim = victim
				nn.VictimP99Ns = excursions[victim]
				nn.AtNs = win.End
				out = append(out, nn)
			}
		}
	}
	for _, nn := range out {
		w.jr.Record("obs", "noisyneighbor", nn.Kind, 0, int64(nn.Share*100),
			fmt.Sprintf("hog %s holds %.0f%% of %s; victim %s p99 %.1fms",
				nn.Hog, nn.Share*100, nn.Kind, nn.Victim, float64(nn.VictimP99Ns)/1e6))
	}
	return out
}
