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

// The card's host-time budget (EXPERIMENTS.md, "The second clock"): the
// card is the simulator's, so what it costs the host is overhead on every
// number that is meant to read the system above it. Each bench steps a
// card that has no destager, so that what is timed is the call named and
// nothing running beside it; the modelled waits are compressed away.

func benchCard(b *testing.B) *NVRAM {
	c := NewClock(1e6)
	b.Cleanup(c.Stop)
	d := NewDisk(c, "d", DiskParams{Capacity: 4 << 20, SeekTime: time.Millisecond, TransferRate: 64 << 20})
	if err := d.WriteAt(make([]byte, 2<<20), 0); err != nil { // the disk's sectors exist: first touch is set-up
		b.Fatal(err)
	}
	return newNVRAM(c, d, 8<<20, 0)
}

// BenchmarkNVRAMWrite64K stages 64 KB writes — Petal's chunk — over a
// 1 MB window. fresh: each write finds its sectors destaged since the
// last one, as a streamed file's rewrite does; rewrite: the window stays
// staged, a hot block's shape. The destage between fresh writes is not
// timed.
func BenchmarkNVRAMWrite64K(b *testing.B) {
	for _, shape := range []string{"fresh", "rewrite"} {
		b.Run(shape, func(b *testing.B) {
			nv := benchCard(b)
			p := make([]byte, 64<<10)
			b.SetBytes(int64(len(p)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nv.WriteAt(p, int64(i%16)*int64(len(p))); err != nil {
					b.Fatal(err)
				}
				if shape == "fresh" {
					b.StopTimer()
					for staged(nv) > 0 {
						if _, _, err := destageOne(b, nv); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkNVRAMReadOverlay32K reads 32 KB — half a chunk, what a Petal
// read piece is — through a card that holds none, half or all of it.
func BenchmarkNVRAMReadOverlay32K(b *testing.B) {
	for _, staged := range []int{0, 32, 64} {
		b.Run(fmt.Sprintf("staged=%d", staged), func(b *testing.B) {
			nv := benchCard(b)
			if err := nv.WriteAt(make([]byte, staged*SectorSize), 0); err != nil {
				b.Fatal(err)
			}
			p := make([]byte, 32<<10)
			b.SetBytes(int64(len(p)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nv.ReadAt(p, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNVRAMDestage times one turn of the destager over a staged
// 32 KB run, the longest it takes: gathering it, the disk's copy,
// retiring its sectors. The write that stages the run is not timed.
func BenchmarkNVRAMDestage(b *testing.B) {
	nv := benchCard(b)
	p := make([]byte, runSectors*SectorSize)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := nv.WriteAt(p, int64(i%16)*int64(len(p))); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := destageOne(b, nv); err != nil {
			b.Fatal(err)
		}
	}
}
