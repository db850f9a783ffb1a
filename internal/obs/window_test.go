package obs

import (
	"strings"
	"sync"
	"testing"
)

// manualClock only moves when told to, so window lengths are exact.
type manualClock struct {
	mu sync.Mutex
	t  int64
}

func (c *manualClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d int64) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
}

func TestWindowRatesAndQuantiles(t *testing.T) {
	clk := &manualClock{}
	reg := NewRegistry(clk.now)
	ring := NewWindowRing(reg)

	c := reg.Counter("fs.ops.count#ws1")
	h := reg.Histogram("fs.write.latency#ws1")
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	for i := 0; i < 9; i++ {
		h.Record(1e6) // 1ms
	}
	h.Record(100e6) // one 100ms outlier
	clk.advance(2e9)
	win := ring.Advance()

	if win.Seconds() != 2 {
		t.Fatalf("window length = %v, want 2s", win.Seconds())
	}
	if got := win.Rates["fs.ops.count#ws1"]; got != 5 {
		t.Fatalf("rate = %v, want 5/s", got)
	}
	hs, ok := win.Hists["fs.write.latency#ws1"]
	if !ok || hs.Count != 10 {
		t.Fatalf("window hist = %+v", hs)
	}
	if hs.P50 < 8e5 || hs.P50 > 13e5 {
		t.Fatalf("window p50 = %d, want ~1ms", hs.P50)
	}
	if hs.P99 < 80e6 || hs.P99 > 100e6 {
		t.Fatalf("window p99 = %d, want ~100ms", hs.P99)
	}
	if hs.Max > 100e6 {
		t.Fatalf("window max %d exceeds cumulative max", hs.Max)
	}
	if hs.Sum != 9*1e6+100e6 {
		t.Fatalf("window sum = %d", hs.Sum)
	}

	// An idle window: rates zero, no histogram rows.
	clk.advance(1e9)
	idle := ring.Advance()
	if idle.Start != win.End {
		t.Fatalf("windows not contiguous: %d after %d", idle.Start, win.End)
	}
	if got := idle.Rates["fs.ops.count#ws1"]; got != 0 {
		t.Fatalf("idle rate = %v, want 0", got)
	}
	if len(idle.Hists) != 0 {
		t.Fatalf("idle window has hist rows: %+v", idle.Hists)
	}

	// The *window* p99 reflects only the window's samples, not the
	// cumulative distribution: a third window with only fast samples
	// must not show the old outlier.
	for i := 0; i < 10; i++ {
		h.Record(1e6)
	}
	clk.advance(1e9)
	w3 := ring.Advance()
	if hs := w3.Hists["fs.write.latency#ws1"]; hs.P99 > 2e6 {
		t.Fatalf("window p99 = %d includes stale outlier", hs.P99)
	}
}

func TestWindowText(t *testing.T) {
	clk := &manualClock{}
	reg := NewRegistry(clk.now)
	ring := NewWindowRing(reg)
	reg.Counter("fs.ops.count#ws1").Inc()
	reg.Counter("idle.counter#ws1") // zero: must be skipped
	reg.Histogram("fs.sync.latency#ws1").Record(5e6)
	clk.advance(1e9)
	out := ring.Advance().Text()
	for _, want := range []string{"rates (/s)", "fs.ops.count#ws1", "latencies this window", "fs.sync.latency#ws1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("window text missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "idle.counter") {
		t.Fatalf("idle counter rendered:\n%s", out)
	}
}

// Concurrent recording while the ring advances must be race-free
// (run under -race) and lose no counts overall.
func TestWindowRingConcurrent(t *testing.T) {
	clk := &manualClock{}
	reg := NewRegistry(clk.now)
	ring := NewWindowRing(reg)
	c := reg.Counter("ops#x")
	h := reg.Histogram("lat#x")

	const workers, per = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Record(int64(i%100) * 1e4)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
		default:
			clk.advance(1e7)
			ring.Advance()
			continue
		}
		break
	}
	clk.advance(1e9)
	final := ring.Advance()
	if c.Value() != workers*per {
		t.Fatalf("lost counts: %d", c.Value())
	}
	if h.Count() != workers*per {
		t.Fatalf("lost samples: %d", h.Count())
	}
	_ = final
	var nilRing *WindowRing
	if win := nilRing.Advance(); win.Rates != nil {
		t.Fatal("nil ring must be inert")
	}
}
