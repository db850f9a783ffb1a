package sim

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// The simulator's own host-time budget (ROADMAP aim 1): what a modelled
// wait, a message and a contended resource cost on the wall clock beside
// what they model. Everything runs at compression 1, where the two are
// directly comparable. Numbers for this host are in EXPERIMENTS.md,
// "Waits that cost what they model".

// quantile returns the q-quantile of xs, which it sorts.
func quantile(xs []time.Duration, q float64) time.Duration {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[int(q*float64(len(xs)-1))]
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// BenchmarkClockSleep reports by how much Clock.Sleep overshoots, with
// one sleeper and with eight at once (b.N sleeps each).
func BenchmarkClockSleep(b *testing.B) {
	for _, d := range []time.Duration{50 * time.Microsecond, 250 * time.Microsecond, 2 * time.Millisecond} {
		for _, sleepers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%v/sleepers=%d", d, sleepers), func(b *testing.B) {
				c := NewClock(1)
				defer c.Stop()
				over := make([][]time.Duration, sleepers)
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for s := range over {
					over[s] = make([]time.Duration, 0, b.N)
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							start := time.Now()
							c.Sleep(d)
							over[s] = append(over[s], time.Since(start)-d)
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				var all []time.Duration
				for _, o := range over {
					all = append(all, o...)
				}
				b.ReportMetric(usec(quantile(all, 0.5)), "overshoot-us-p50")
				b.ReportMetric(usec(quantile(all, 0.9)), "overshoot-us-p90")
			})
		}
	}
}

// BenchmarkNetworkOneWay reports the wall time from Send to the handler
// beside the modelled one-way time, one message in flight at a time.
func BenchmarkNetworkOneWay(b *testing.B) {
	for _, size := range []int{64, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			w := NewWorld(1, 1)
			defer w.Stop()
			p := DefaultLinkParams()
			w.AddMachine("a", p)
			w.AddMachine("b", p)
			got := make(chan struct{}, 1)
			w.Net.Register("b", func(Message) { got <- struct{}{} })
			wire := time.Duration(float64(size) / float64(p.Bandwidth) * 1e9)
			modelled := 2*wire + 2*p.Latency // egress, ingress, both latencies
			took := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if err := w.Net.Send("a", "b", nil, size); err != nil {
					b.Fatal(err)
				}
				<-got
				took = append(took, time.Since(start))
			}
			b.StopTimer()
			b.ReportMetric(usec(modelled), "modelled-us")
			b.ReportMetric(usec(quantile(took, 0.5)), "wall-us-p50")
			b.ReportMetric(usec(quantile(took, 0.9)), "wall-us-p90")
		})
	}
}

// BenchmarkResourceUseContended has eight goroutines queue 100 µs uses
// on one resource: ns/op beside the 100 µs a use models is what the
// queue loses to wake-ups, since the next use starts where the last one
// was modelled to end, not where its sleeper woke.
func BenchmarkResourceUseContended(b *testing.B) {
	const cost = 100 * time.Microsecond
	c := NewClock(1)
	defer c.Stop()
	r := NewResource(c, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < b.N; i += 8 {
				r.Use(cost)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(usec(cost), "modelled-us")
}
