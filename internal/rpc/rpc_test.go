package rpc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"frangipani/internal/sim"
)

type echoReq struct{ N int }
type echoResp struct{ N int }

type bigMsg struct{ bytes int }

func (b bigMsg) WireSize() int { return b.bytes }

// newPair connects endpoint a to endpoint b, which serves h, or echoes
// an echoReq when h is nil.
func newPair(t *testing.T, h HandlerFunc) (*sim.World, *Endpoint, *Endpoint) {
	t.Helper()
	if h == nil {
		h = func(from string, body any) any {
			if r, ok := body.(echoReq); ok {
				return echoResp{N: r.N + 1}
			}
			return nil
		}
	}
	w := sim.NewWorld(2000, 7)
	w.AddMachine("a", sim.DefaultLinkParams())
	w.AddMachine("b", sim.DefaultLinkParams())
	carrier := SimCarrier{Net: w.Net}
	a := NewEndpoint("a", carrier, w.Clock, nil)
	b := NewEndpoint("b", carrier, w.Clock, h)
	t.Cleanup(func() { a.Close(); b.Close() })
	return w, a, b
}

func TestCallRoundTrip(t *testing.T) {
	_, a, _ := newPair(t, nil)
	got, err := a.Call("b", echoReq{N: 41}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.(echoResp).N != 42 {
		t.Fatalf("got %v, want 42", got)
	}
}

func TestConcurrentCallsCorrelate(t *testing.T) {
	_, a, _ := newPair(t, nil)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			got, err := a.Call("b", echoReq{N: n}, 10*time.Second)
			if err != nil {
				t.Errorf("call %d: %v", n, err)
				return
			}
			if got.(echoResp).N != n+1 {
				t.Errorf("call %d got %v", n, got)
			}
		}(i)
	}
	wg.Wait()
}

func TestCallTimeout(t *testing.T) {
	never := make(chan struct{})
	defer close(never)
	_, a, _ := newPair(t, func(from string, body any) any {
		<-never // never answer in time
		return echoResp{}
	})
	_, err := a.Call("b", echoReq{}, 200*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestCallUnreachable(t *testing.T) {
	w, a, _ := newPair(t, nil)
	w.Net.Isolate("b")
	_, err := a.Call("b", echoReq{}, time.Second)
	if !errors.Is(err, sim.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestCast(t *testing.T) {
	got := make(chan any, 1)
	_, a, _ := newPair(t, func(from string, body any) any {
		got <- body
		return nil
	})
	if err := a.Cast("b", "ping"); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "ping" {
			t.Fatalf("got %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cast not delivered")
	}
}

func TestClosedEndpoint(t *testing.T) {
	_, a, _ := newPair(t, nil)
	a.Close()
	if err := a.Cast("b", "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("cast after close: %v", err)
	}
	if _, err := a.Call("b", echoReq{}, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

func TestReplyToClosedCallerDoesNotBlock(t *testing.T) {
	release := make(chan struct{})
	w, a, _ := newPair(t, func(from string, body any) any {
		<-release
		return echoResp{N: 1}
	})
	done := make(chan struct{})
	go func() {
		_, _ = a.Call("b", echoReq{}, 50*time.Millisecond)
		close(done)
	}()
	<-done // call timed out
	close(release)
	// The late reply must be dropped without blocking the network.
	w.Clock.Sleep(time.Second)
}

func TestSizerChargesBandwidth(t *testing.T) {
	w := sim.NewWorld(200, 7)
	p := sim.LinkParams{Latency: 0, Bandwidth: 1 << 20}
	w.AddMachine("a", p)
	w.AddMachine("b", p)
	carrier := SimCarrier{Net: w.Net}
	a := NewEndpoint("a", carrier, w.Clock, nil)
	got := make(chan struct{}, 1)
	NewEndpoint("b", carrier, w.Clock, func(string, any) any {
		got <- struct{}{}
		return nil
	})
	start := w.Clock.Now()
	if err := a.Cast("b", bigMsg{bytes: 512 << 10}); err != nil { // 512 KB at 1 MB/s
		t.Fatal(err)
	}
	<-got
	elapsed := time.Duration(w.Clock.Now() - start)
	if elapsed < 400*time.Millisecond {
		t.Fatalf("512KB over 1MB/s took %v simulated, want >= ~0.5s", elapsed)
	}
}
