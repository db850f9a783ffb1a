package obs

import "testing"

func rateWin(end int64, name string, rate float64) Window {
	return Window{Start: end - 1e9, End: end, Rates: map[string]float64{name: rate}}
}

// observe is Observe's anomalies alone.
func observe(w *AnomalyWatcher, win Window) []Anomaly {
	got, _ := w.Observe(win)
	return got
}

func TestAnomalyEmptyWindowNoop(t *testing.T) {
	w := NewAnomalyWatcher(nil, 2)
	if got, nn := w.Observe(Window{Start: 0, End: 1e9}); got != nil || nn != nil {
		t.Fatalf("empty window fired %v %v", got, nn)
	}
	// An empty window must not count toward warm-up either.
	observe(w, rateWin(2e9, "fs.write#ws1", 100))
	observe(w, rateWin(3e9, "fs.write#ws1", 100))
	observe(w, Window{Start: 3e9, End: 4e9}) // empty: ignored
	got := observe(w, rateWin(5e9, "fs.write#ws1", 1000))
	if len(got) != 1 {
		t.Fatalf("warm metric should fire after 2 real windows, got %v", got)
	}
}

func TestAnomalyFirstWindowSeedsBaseline(t *testing.T) {
	w := NewAnomalyWatcher(nil, 3)
	// A fresh cluster's first windows establish the baseline; even a
	// huge first value is not judged against anything.
	for i := 0; i < 3; i++ {
		if got := observe(w, rateWin(int64(i+1)*1e9, "fs.write#ws1", 5000)); got != nil {
			t.Fatalf("warm-up window %d fired %v", i, got)
		}
	}
	// Now warmed at ~5000/s; staying flat must not fire...
	if got := observe(w, rateWin(4e9, "fs.write#ws1", 5200)); got != nil {
		t.Fatalf("flat traffic fired %v", got)
	}
	// ...but 4x does, once, with the latch holding on sustain.
	got := observe(w, rateWin(5e9, "fs.write#ws1", 25000))
	if len(got) != 1 || got[0].Kind != "rate" || got[0].Metric != "fs.write#ws1" {
		t.Fatalf("spike: got %v", got)
	}
	if got := observe(w, rateWin(6e9, "fs.write#ws1", 26000)); got != nil {
		t.Fatalf("sustained spike re-fired: %v", got)
	}
}

func TestAnomalyFlatZeroRate(t *testing.T) {
	w := NewAnomalyWatcher(nil, 2)
	// Flat-zero history: idle metric, zero baseline, no divide-by-zero.
	for i := 0; i < 5; i++ {
		if got := observe(w, rateWin(int64(i+1)*1e9, "petal.retries#ws1", 0)); got != nil {
			t.Fatalf("flat zero fired %v", got)
		}
	}
	// A blip under the minRate floor stays quiet...
	if got := observe(w, rateWin(6e9, "petal.retries#ws1", 3)); got != nil {
		t.Fatalf("sub-floor blip fired %v", got)
	}
	// ...a real burst above the floor fires against baseline 0.
	got := observe(w, rateWin(7e9, "petal.retries#ws1", 50))
	if len(got) != 1 || got[0].Baseline >= minRate {
		t.Fatalf("zero-baseline burst: got %v", got)
	}
}

func TestAnomalyP99AndJournal(t *testing.T) {
	j := NewJournal("cluster", 16, nil)
	w := NewAnomalyWatcher(j, 2)
	h := func(end int64, p99 int64) Window {
		return Window{Start: end - 1e9, End: end,
			Hists: map[string]HistStat{"fs.sync.latency#ws1": {Count: 10, P99: p99}}}
	}
	observe(w, h(1e9, 2e6))
	observe(w, h(2e9, 2e6))
	got := observe(w, h(3e9, 40e6)) // 20x p99 spike
	if len(got) != 1 || got[0].Kind != "p99" {
		t.Fatalf("p99 spike: got %v", got)
	}
	evs := j.Events()
	if len(evs) != 1 || evs[0].Layer != "obs" || evs[0].Op != "anomaly" || evs[0].Kind != "p99" {
		t.Fatalf("journal annotation missing: %v", evs)
	}
	// Recovery then a second spike fires again (latch resets).
	observe(w, h(4e9, 2e6))
	observe(w, h(5e9, 2e6))
	observe(w, h(6e9, 2e6))
	if got := observe(w, h(7e9, 60e6)); len(got) != 1 {
		t.Fatalf("second spike after recovery: got %v", got)
	}
}

// acctWin builds one window's accounts: a streamer moving most of the
// bytes and a reader whose p99 is the parameter.
func acctWin(end, streamBytes, readerWait, readerP99 int64) Window {
	return Window{Start: end - 1e9, End: end, Accounts: []AccountStat{
		{Principal: "streamer", BytesIn: streamBytes, OpP99Ns: 5e5, LockWaitNs: 20e6},
		{Principal: "reader", BytesOut: 4 << 10, OpP99Ns: readerP99, LockWaitNs: readerWait},
	}}
}

func TestNoisyNeighborFires(t *testing.T) {
	j := NewJournal("cluster", 16, nil)
	w := NewAnomalyWatcher(j, 2)
	// Warm up: streamer busy, reader healthy. No verdicts.
	for i := 0; i < 3; i++ {
		if _, got := w.Observe(acctWin(int64(i+1)*1e9, 8<<20, 1e6, 2e6)); got != nil {
			t.Fatalf("warm-up window %d fired %v", i, got)
		}
	}
	// Reader's p99 spikes 20x while the streamer holds >50% of bytes
	// and lock-wait: both kinds fire, naming hog and victim.
	_, got := w.Observe(acctWin(4e9, 8<<20, 1e6, 40e6))
	if len(got) != 2 {
		t.Fatalf("expected bytes+lockwait verdicts, got %v", got)
	}
	for _, nn := range got {
		if nn.Hog != "streamer" || nn.Victim != "reader" || nn.Share <= 0.5 || nn.AtNs != 4e9 {
			t.Fatalf("verdict misattributed: %+v", nn)
		}
		if nn.Kind != "bytes" && nn.Kind != "lockwait" {
			t.Fatalf("unknown kind: %+v", nn)
		}
	}
	found := false
	for _, e := range j.Events() {
		if e.Layer == "obs" && e.Op == "noisyneighbor" {
			found = true
		}
	}
	if !found {
		t.Fatal("noisyneighbor event not journaled")
	}
	// Sustained spike: the p99 latch holds, so no re-fire.
	if _, got := w.Observe(acctWin(5e9, 8<<20, 1e6, 45e6)); got != nil {
		t.Fatalf("sustained spike re-fired: %v", got)
	}
}

func TestNoisyNeighborNeedsBothSignals(t *testing.T) {
	w := NewAnomalyWatcher(nil, 2)
	// Victim spikes but nobody dominates: total bytes split evenly and
	// below minNoisyBytes — no verdict even though the excursion fires.
	even := func(end, p99 int64) Window {
		return Window{Start: end - 1e9, End: end, Accounts: []AccountStat{
			{Principal: "a", BytesIn: 100, OpP99Ns: 5e5},
			{Principal: "b", BytesOut: 100, OpP99Ns: p99},
		}}
	}
	w.Observe(even(1e9, 2e6))
	w.Observe(even(2e9, 2e6))
	if _, got := w.Observe(even(3e9, 40e6)); got != nil {
		t.Fatalf("no hog but fired: %v", got)
	}
	// A hog without any victim excursion is just a busy tenant.
	w2 := NewAnomalyWatcher(nil, 2)
	for i := 0; i < 4; i++ {
		if _, got := w2.Observe(acctWin(int64(i+1)*1e9, 8<<20, 1e6, 2e6)); got != nil {
			t.Fatalf("hog without victim fired: %v", got)
		}
	}
}
