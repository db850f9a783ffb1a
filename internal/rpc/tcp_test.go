package rpc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"frangipani/internal/sim"
)

type tcpEcho struct{ N int }
type tcpEchoResp struct{ N int }

func init() {
	Register(tcpEcho{}, tcpEchoResp{})
}

func newTCPPair(t *testing.T) (*Endpoint, *Endpoint, *TCPCarrier) {
	t.Helper()
	carrier := NewTCPCarrier()
	clock := sim.NewClock(1)
	a := NewEndpoint("a", carrier, clock, nil)
	b := NewEndpoint("b", carrier, clock, func(from string, body any) any {
		if r, ok := body.(tcpEcho); ok {
			return tcpEchoResp{N: r.N * 2}
		}
		return nil
	})
	t.Cleanup(func() {
		a.Close()
		b.Close()
		carrier.Close()
	})
	return a, b, carrier
}

func TestTCPCallRoundTrip(t *testing.T) {
	a, _, _ := newTCPPair(t)
	got, err := a.Call("b", tcpEcho{N: 21}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.(tcpEchoResp).N != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	a, _, _ := newTCPPair(t)
	var wg sync.WaitGroup
	for i := 1; i <= 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			got, err := a.Call("b", tcpEcho{N: n}, 10*time.Second)
			if err != nil {
				t.Errorf("call %d: %v", n, err)
				return
			}
			if got.(tcpEchoResp).N != n*2 {
				t.Errorf("call %d: got %v", n, got)
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPCast(t *testing.T) {
	carrier := NewTCPCarrier()
	clock := sim.NewClock(1)
	got := make(chan any, 1)
	NewEndpoint("rx", carrier, clock, func(from string, body any) any {
		got <- body
		return nil
	})
	tx := NewEndpoint("tx", carrier, clock, nil)
	defer carrier.Close()
	if err := tx.Cast("rx", tcpEcho{N: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v.(tcpEcho).N != 7 {
			t.Fatalf("got %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cast not delivered")
	}
}

func TestTCPOrderingPerPair(t *testing.T) {
	carrier := NewTCPCarrier()
	clock := sim.NewClock(1)
	var mu sync.Mutex
	var seen []int
	done := make(chan struct{}, 64)
	NewEndpoint("rx", carrier, clock, func(from string, body any) any {
		if m, ok := body.(tcpEcho); ok {
			mu.Lock()
			seen = append(seen, m.N)
			mu.Unlock()
			done <- struct{}{}
		}
		return nil
	})
	tx := NewEndpoint("tx", carrier, clock, nil)
	defer carrier.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := tx.Cast("rx", tcpEcho{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("timed out")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if seen[i] != i {
			t.Fatalf("message %d arrived out of order (%d)", i, seen[i])
		}
	}
}

func TestTCPUnknownHost(t *testing.T) {
	carrier := NewTCPCarrier()
	clock := sim.NewClock(1)
	a := NewEndpoint("a", carrier, clock, nil)
	defer carrier.Close()
	if err := a.Cast("ghost", tcpEcho{}); err == nil {
		t.Fatal("cast to unknown host succeeded")
	}
	// Calls to a dead-but-known address time out cleanly.
	carrier.SetAddr("zombie", "127.0.0.1:1")
	if _, err := a.Call("zombie", tcpEcho{}, 500*time.Millisecond); err == nil {
		t.Fatal("call to dead address succeeded")
	} else if errors.Is(err, ErrClosed) {
		t.Fatal("wrong error kind")
	}
}
