package sim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"frangipani/internal/reuse"
)

// forever is the deadline of a timer that has nothing to wait for.
const forever = time.Duration(math.MaxInt64)

// A wake-up that comes after the sleeper's deadline stretches the margin
// by one part in lateGrow (or by what it was late by, if that is less);
// every other wait shrinks it by one part in onTimeShrink. The margin
// settles where the two balance: about one wait in onTimeShrink/lateGrow
// + 1 ends late, whatever the host's wake-ups are like at the moment. A
// wait too short to be queued counts as on time — no margin would have
// helped it — so the margin cannot stay where one bad moment has put it.
const (
	lateGrow     = 4
	onTimeShrink = 64
)

// sleeper is one parked goroutine: the wall instant (since the epoch)
// at which it is to be woken, and the channel it waits on.
type sleeper struct {
	at time.Duration
	ch chan struct{}
}

// timers is the clock's own timer service: a min-heap of absolute wall
// instants at which parked sleepers are to be woken, one kernel timer
// (kwait: the only platform-specific piece) kept set to the earliest of
// them by whoever changes it, and — from the first wait until the clock
// is stopped and the heap has drained — one goroutine that waits for
// that timer and wakes the sleepers that are due. With an empty heap the
// timer is not set and the goroutine stays parked: an idle cluster costs
// nothing.
//
// How long after the timer expires a sleeper is running again is the
// host's business — tens of microseconds at best, several times that
// when the processor had gone idle, and different from one minute to
// the next — so a sleeper does not ask to be woken at its deadline. It
// asks a margin ahead of it and yields the processor until the deadline
// has come; while it does that it also wakes whoever else is due, so
// the kernel is only gone through when nobody is awake. The margin is
// learned from the wake-ups themselves (see lateGrow).
type timers struct {
	epoch time.Time

	mu      sync.Mutex
	heap    []sleeper
	next    time.Duration // what kw is set to: the earliest entry of heap, forever if none
	running bool          // kw is open and the goroutine exists
	stopped bool          // no new sleeper is accepted; the goroutine ends once the heap is empty
	kw      kwait
	// parks are the one-slot channels of woken sleepers, for the next
	// to park on: a wait allocates nothing in steady state.
	parks reuse.List[chan struct{}]

	due    atomic.Int64 // next, for those who look without mu
	margin atomic.Int64 // how far ahead of its deadline a sleeper has itself woken
}

func (tm *timers) init(epoch time.Time) {
	tm.epoch = epoch
	tm.setNext(forever)
}

// now is the wall time since the epoch.
func (tm *timers) now() time.Duration { return time.Since(tm.epoch) }

// waitUntil blocks the caller until now() >= at, never less.
func (tm *timers) waitUntil(at time.Duration) {
	now := tm.now()
	if now >= at {
		return
	}
	var late time.Duration
	if wake := at - time.Duration(tm.margin.Load()); wake > now {
		if !tm.park(wake) {
			time.Sleep(at - now) // stopped clock: nothing measures it any more
		} else {
			late = tm.now() - at
		}
	}
	tm.learn(late)
	// Awake ahead of the deadline: let others run until it has come, and
	// do the timer goroutine's work meanwhile, which it would be late for.
	for now = tm.now(); now < at; now = tm.now() {
		if now >= time.Duration(tm.due.Load()) && tm.mu.TryLock() {
			tm.fire(now)
			tm.mu.Unlock()
		}
		runtime.Gosched()
	}
}

// learn moves the margin after a wait whose wake-up came that long after
// its deadline (not after it at all, if zero or less).
func (tm *timers) learn(late time.Duration) {
	margin := tm.margin.Load()
	step := -margin / onTimeShrink
	if late > 0 {
		step = min(int64(late), margin/lateGrow+1) // no further than would have been enough
	}
	tm.margin.CompareAndSwap(margin, margin+step) // lost to a racing update: the next wait makes the step again
}

// park queues the caller to be woken at the given instant and blocks it
// until it has been. It reports false, without waiting, on a stopped
// clock (or one the process has no descriptor left for).
func (tm *timers) park(at time.Duration) bool {
	tm.mu.Lock()
	if !tm.running && !tm.stopped && tm.kw.open() == nil {
		tm.running = true
		go tm.run()
	}
	if !tm.running || tm.stopped {
		tm.mu.Unlock()
		return false
	}
	ch, ok := tm.parks.Take()
	if !ok {
		ch = make(chan struct{}, 1)
	}
	tm.push(sleeper{at, ch})
	if at < tm.next {
		tm.setNext(at)
		tm.kw.arm(at - tm.now())
	}
	tm.mu.Unlock()
	<-ch
	tm.parks.Put(ch)
	return true
}

// stop lets the goroutine go once the last pending sleeper has been woken.
func (tm *timers) stop() {
	tm.mu.Lock()
	tm.stopped = true
	if tm.running && len(tm.heap) == 0 {
		tm.kw.arm(0) // nothing would wake it otherwise
	}
	tm.mu.Unlock()
}

// run is the timer goroutine.
func (tm *timers) run() {
	for {
		tm.kw.wait()
		tm.mu.Lock()
		tm.fire(tm.now())
		if len(tm.heap) == 0 && tm.stopped {
			tm.running = false
			tm.kw.close()
			tm.mu.Unlock()
			return
		}
		tm.mu.Unlock()
	}
}

// fire wakes the sleepers that are due at now and sets the kernel timer
// to the earliest of the rest. The caller holds mu.
func (tm *timers) fire(now time.Duration) {
	for len(tm.heap) > 0 && tm.heap[0].at <= now {
		tm.pop().ch <- struct{}{} // one slot, one sleeper: never blocks
	}
	switch {
	case len(tm.heap) == 0:
		tm.setNext(forever) // kw may still expire for what has just been woken: harmless
		if tm.stopped && tm.running {
			tm.kw.arm(0) // the goroutine has nothing left to wait for: let it see that
		}
	case tm.heap[0].at != tm.next:
		tm.setNext(tm.heap[0].at)
		tm.kw.arm(tm.next - now)
	}
}

func (tm *timers) setNext(at time.Duration) {
	tm.next = at
	tm.due.Store(int64(at))
}

func (tm *timers) push(s sleeper) {
	h := append(tm.heap, s)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if h[up].at <= s.at {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = s
	tm.heap = h
}

func (tm *timers) pop() sleeper {
	h := tm.heap
	top, last := h[0], h[len(h)-1]
	h[len(h)-1] = sleeper{}
	h = h[:len(h)-1]
	i := 0
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			break
		}
		if kid+1 < len(h) && h[kid+1].at < h[kid].at {
			kid++
		}
		if last.at <= h[kid].at {
			break
		}
		h[i] = h[kid]
		i = kid
	}
	if len(h) > 0 {
		h[i] = last
	}
	tm.heap = h
	return top
}
