package rpc_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frangipani/internal/petal"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// TestCarrierKeepsPairOrder holds both carriers to one rule: what one
// host sends another — casts and calls, 64 B and 1 MB, mixed — arrives
// in send order. The lock protocol's casts and Endpoint.Go rely on it.
// Arrival is read in the receive function registered on the carrier:
// a call's handler runs on a goroutine of its own, so the handler's
// order would not be the carrier's.
func TestCarrierKeepsPairOrder(t *testing.T) {
	carriers := map[string]func(t *testing.T) (rpc.Carrier, *sim.Clock){
		"sim": func(t *testing.T) (rpc.Carrier, *sim.Clock) {
			w := sim.NewWorld(100, 1)
			t.Cleanup(w.Stop)
			return rpc.SimCarrier{Net: w.Net}, w.Clock
		},
		"tcp": func(t *testing.T) (rpc.Carrier, *sim.Clock) {
			c, clock := rpc.NewTCPCarrier(), sim.NewClock(1)
			t.Cleanup(func() { c.Close(); clock.Stop() })
			return c, clock
		},
	}
	for name, newCarrier := range carriers {
		t.Run(name, func(t *testing.T) {
			carrier, clock := newCarrier(t)
			const n = 12
			arrived := make(chan int64, n)
			carrier.Register("rx", func(from string, env rpc.Envelope, size int) {
				if m, ok := env.Body.(*petal.WriteVReq); ok {
					arrived <- m.Extents[0].Chunk
				}
				rpc.Release(env.Body)
			})
			tx := rpc.NewEndpoint("tx", carrier, clock, nil)
			defer tx.Close()
			big, small := make([]byte, 1<<20), make([]byte, 64)
			for i := int64(0); i < n; i++ {
				data := small
				if i%2 == 0 {
					data = big // each 1 MB message is followed by a 64 B one
				}
				m := &petal.WriteVReq{VDisk: "order", Extents: []petal.WriteVExtent{{Chunk: i, Data: data}}}
				var err error
				if i%3 == 0 {
					err = tx.Cast("rx", m)
				} else {
					_, err = tx.Go("rx", m) // never answered: only its arrival counts
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			var order []int64
			for len(order) < n {
				select {
				case i := <-arrived:
					order = append(order, i)
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of %d messages arrived: %v", len(order), n, order)
				}
			}
			for i, got := range order {
				if got != int64(i) {
					t.Fatalf("arrival order %v, want send order", order)
				}
			}
		})
	}
}

// TestTCPCarriesConcurrentBulkIntact: eight goroutines, four rounds
// each, send 1 MB WriteVs of 16 chunk-sized extents — the flusher's
// batch shape — through one TCP pair. Every payload reaches the
// handler bit-exact, every reply comes back, and once the carrier and
// the endpoints are closed every goroutine they started has ended.
func TestTCPCarriesConcurrentBulkIntact(t *testing.T) {
	baseline := runtime.NumGoroutine()
	carrier, clock := rpc.NewTCPCarrier(), sim.NewClock(1)
	var bad atomic.Int64
	srv := rpc.NewEndpoint("srv", carrier, clock, func(from string, body any) any {
		m, ok := body.(*petal.WriteVReq)
		if !ok {
			return nil
		}
		for _, e := range m.Extents {
			for j, b := range e.Data {
				if b != byte(int(e.Chunk)+j) {
					bad.Add(1)
					break
				}
			}
		}
		rpc.Release(m)
		return petal.WriteVResp{OK: true}
	})
	cli := rpc.NewEndpoint("cli", carrier, clock, nil)

	const workers, rounds, extents = 8, 4, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		exts := make([]petal.WriteVExtent, extents)
		for i := range exts {
			chunk := int64(w*extents + i)
			data := make([]byte, petal.ChunkSize)
			for j := range data {
				data[j] = byte(int(chunk) + j)
			}
			exts[i] = petal.WriteVExtent{Chunk: chunk, Data: data}
		}
		req := petal.WriteVReq{VDisk: "bulk", Extents: exts}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := cli.Call("srv", &req, 30*time.Second)
				if wr, ok := resp.(petal.WriteVResp); err != nil || !ok || !wr.OK {
					t.Errorf("round %d: reply %#v, %v", r, resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Errorf("%d extents corrupted in transit", n)
	}

	carrier.Close()
	cli.Close()
	srv.Close()
	clock.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
