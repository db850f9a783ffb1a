package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry(nil)
	c1 := r.Counter("fs.ops.count#ws1")
	c2 := r.Counter("fs.ops.count#ws1")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	c1.Add(3)
	c1.Inc()
	if c2.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c2.Value())
	}
	g := r.Gauge("fs.flush.peak#ws1")
	g.Set(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("SetMax lowered gauge to %d", g.Value())
	}
	g.SetMax(9)
	g.Add(-2)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").SetMax(int64(i))
				r.Histogram("h").Record(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	clock := &fakeClock{}
	r := NewRegistry(clock.now)
	r.Counter("cache.hits#ws1").Add(10)
	r.Gauge("lockservice.server.locks#ls").Set(4)
	r.Histogram("fs.sync.latency#ws1").Record(2_000_000)

	s := r.Snapshot()
	if s.Counters["cache.hits#ws1"] != 10 {
		t.Fatalf("counters: %v", s.Counters)
	}
	if s.Histograms["fs.sync.latency#ws1"].Count != 1 {
		t.Fatalf("histograms: %v", s.Histograms)
	}

	var back Snapshot
	if err := json.Unmarshal([]byte(s.JSON()), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if back.Counters["cache.hits#ws1"] != 10 {
		t.Fatalf("JSON lost counter: %v", back.Counters)
	}

	txt := s.Text()
	for _, want := range []string{"cache.hits#ws1", "fs.sync.latency#ws1", "p99"} {
		if !strings.Contains(txt, want) {
			t.Errorf("text snapshot missing %q:\n%s", want, txt)
		}
	}

	if s := NewRegistry(nil).Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("fresh registry snapshots %+v, want nothing", s)
	}
}

func TestRegistryClock(t *testing.T) {
	clock := &fakeClock{}
	r := NewRegistry(clock.now)
	a := r.Now()
	b := r.Now()
	if b <= a {
		t.Fatal("registry must use the injected clock")
	}
	var nilReg *Registry
	if nilReg.Now() == 0 {
		t.Fatal("nil registry must fall back to wall time")
	}
}
