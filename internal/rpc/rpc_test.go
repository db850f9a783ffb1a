package rpc

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
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

// TestHandlerWorkersEndOnClose: calls served at once leave as many
// handler workers parked, later calls are served by those, casts still
// run in send order on the delivery goroutine, not on a worker, and Close
// ends every worker.
func TestHandlerWorkersEndOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	w := sim.NewWorld(2000, 7)
	w.AddMachine("a", sim.DefaultLinkParams())
	w.AddMachine("b", sim.DefaultLinkParams())
	const calls = 8
	var entered sync.WaitGroup
	entered.Add(calls)
	hold := make(chan struct{})
	var casts []int
	var inCast atomic.Bool
	h := func(from string, body any) any {
		switch m := body.(type) {
		case int: // a cast: the delivery goroutine runs it, one at a time
			if inCast.Swap(true) {
				t.Error("two casts of one pair ran at once")
			}
			casts = append(casts, m)
			inCast.Store(false)
			return nil
		case echoReq:
			if m.N < 0 {
				entered.Done()
				<-hold
			}
			return echoResp{N: m.N + 1}
		}
		return nil
	}
	carrier := SimCarrier{Net: w.Net}
	a := NewEndpoint("a", carrier, w.Clock, nil)
	b := NewEndpoint("b", carrier, w.Clock, h)
	parked := b.workers.Parked
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: never", what)
			}
		}
	}

	var done sync.WaitGroup
	for i := 0; i < calls; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			if _, err := a.Call("b", echoReq{N: -1}, 10*time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	entered.Wait()
	close(hold)
	done.Wait()
	waitFor("every worker parked", func() bool { return parked() == calls })

	for i := 0; i < 100; i++ {
		if i%10 == 0 {
			if _, err := a.Call("b", echoReq{N: i}, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Cast("b", i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Call("b", echoReq{N: 1}, 10*time.Second); err != nil { // behind every cast
		t.Fatal(err)
	}
	for i, n := range casts {
		if i != n {
			t.Fatalf("casts ran in the order %v", casts)
		}
	}
	if len(casts) != 100 {
		t.Fatalf("%d casts ran, want 100", len(casts))
	}
	waitFor("the workers parked again", func() bool { return parked() == calls })
	if n := parked(); n != calls {
		t.Fatalf("%d workers after serving one call at a time, want the %d there were", n, calls)
	}

	b.Close()
	a.Close()
	if n := parked(); n != 0 {
		t.Fatalf("%d workers parked after Close", n)
	}
	w.Stop()
	waitFor("no goroutine left after Close and Stop", func() bool { return runtime.NumGoroutine() <= before })
}
