package sim

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestNetworkSendOrderHoldsWhenTheLaterSenderIsReadyFirst: a pair's order
// is taken when Send is called, not when the message has left the
// sender. Two sends on one pair are stepped by hand — each one's place in
// the queue, then the instant it has left the sender — so that the later
// one is ready first: it is not delivered, and no worker takes the pair,
// until the earlier one is ready too; then they arrive in send order.
func TestNetworkSendOrderHoldsWhenTheLaterSenderIsReadyFirst(t *testing.T) {
	w := NewWorld(1000, 1)
	defer w.Stop()
	w.AddMachine("a", DefaultLinkParams())
	w.AddMachine("b", DefaultLinkParams())
	got := make(chan any, 2)
	w.Net.Register("b", func(m Message) { got <- m.Payload })
	place := func(payload string) (*pairQ, uint64) {
		t.Helper()
		_, _, q, seq, err := w.Net.enqueue(Message{From: "a", To: "b", Payload: payload, Size: 64})
		if err != nil || q == nil {
			t.Fatalf("enqueue %s: %v", payload, err)
		}
		return q, seq
	}
	q, first := place("first")
	_, second := place("second")

	now := w.Clock.Now()
	w.Net.ready(q, second, now)
	w.Net.mu.Lock()
	busy := q.busy
	w.Net.mu.Unlock()
	if busy {
		t.Fatal("the pair went to a worker while its head was still on the sender's egress")
	}
	select {
	case p := <-got:
		t.Fatalf("%v delivered ahead of the message sent before it", p)
	default:
	}

	w.Net.ready(q, first, now)
	for _, want := range []string{"first", "second"} {
		select {
		case p := <-got:
			if p != want {
				t.Fatalf("%v delivered when %s was due", p, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never delivered", want)
		}
	}
}

// TestNetworkPairInFlightTakesOneGoroutine: a thousand messages in flight
// on one pair are one worker, not a thousand goroutines, and once the
// world stops none of the network's goroutines is left.
func TestNetworkPairInFlightTakesOneGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	w := NewWorld(1000, 1)
	w.AddMachine("a", DefaultLinkParams())
	w.AddMachine("b", DefaultLinkParams())
	const msgs = 1000
	hold := make(chan struct{})
	var delivered atomic.Int64
	w.Net.Register("b", func(Message) {
		if delivered.Add(1) == 1 {
			<-hold // the first delivery holds the pair: the rest stay in flight
		}
	})
	w.Clock.Sleep(time.Millisecond) // the clock's own goroutine is up before the count
	base := runtime.NumGoroutine()
	for i := 0; i < msgs; i++ {
		if err := w.Net.Send("a", "b", nil, 64); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "the first message delivered", func() bool { return delivered.Load() == 1 })
	if g := runtime.NumGoroutine(); g > base+1 {
		t.Errorf("%d messages in flight on one pair: %d goroutines beside %d, want at most one more", msgs, g, base)
	}
	close(hold)
	eventually(t, "every message delivered", func() bool { return delivered.Load() == msgs })
	w.Stop()
	eventually(t, "no goroutine left after Stop", func() bool { return runtime.NumGoroutine() <= before })
}

// TestNetworkSendAllocs: a Send of a payload that is already boxed
// allocates nothing once its pair has a queue and a worker — not a
// goroutine, not a closure, not a message. The clock parks waits on
// pooled channels, which the race detector drops a share of, so the
// count is checked without it only.
func TestNetworkSendAllocs(t *testing.T) {
	w := NewWorld(100, 1)
	defer w.Stop()
	w.AddMachine("a", DefaultLinkParams())
	w.AddMachine("b", DefaultLinkParams())
	got := make(chan struct{}, 1)
	w.Net.Register("b", func(Message) { got <- struct{}{} })
	var payload any = &struct{ n int }{7}
	send := func() {
		if err := w.Net.Send("a", "b", payload, 64); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	send() // warm: the pair's queue and its worker exist
	if n := testing.AllocsPerRun(200, send); n != 0 && !raceBuild() {
		t.Errorf("a Send allocates %v times", n)
	}
}
