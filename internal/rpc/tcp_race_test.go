package rpc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frangipani/internal/sim"
)

// TestTCPReconnectRace hammers one (from, to) pair with concurrent
// senders while the receiver repeatedly unregisters and re-registers
// (changing its port each time), so senders race connection teardown
// and the redial path. Run under -race this exercises the carrier's
// connection table, writer shutdown, and in-flight stream cleanup;
// the final delivery check proves the carrier recovers.
func TestTCPReconnectRace(t *testing.T) {
	carrier := NewTCPCarrier()
	defer carrier.Close()
	var delivered atomic.Int64
	register := func() {
		carrier.Register("rx", func(from string, env Envelope, size int) {
			if size <= 0 {
				t.Errorf("recv reported size %d, want > 0", size)
			}
			delivered.Add(1)
			Release(env.Body)
		})
	}
	register()
	clock := sim.NewClock(1)
	tx := NewEndpoint("tx", carrier, clock, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Best-effort: sends racing a teardown may fail or be
				// dropped; the carrier just must not deadlock or race.
				_ = tx.Cast("rx", tcpEcho{N: g*1000 + i})
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		carrier.Unregister("rx")
		time.Sleep(5 * time.Millisecond)
		register()
	}
	close(stop)
	wg.Wait()

	// After the churn settles, delivery must work again.
	before := delivered.Load()
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("no delivery after reconnect churn")
		}
		_ = tx.Cast("rx", tcpEcho{N: -1})
		time.Sleep(5 * time.Millisecond)
	}
}
