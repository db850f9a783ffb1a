package sim

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// eventually polls cond, yielding in between, and fails the test if it
// has not held within five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
	}
}

// parked reports how many sleepers are queued on c.
func parked(c *Clock) int {
	c.tm.mu.Lock()
	defer c.tm.mu.Unlock()
	return len(c.tm.heap)
}

// besideRuntimeSleep measures the median of n samples beside the median
// by which time.Sleep(200 µs) overshoots at the same moment, three rounds
// of it, and returns the round in which the samples did best against the
// runtime: the machine is shared, and in someone else's burst both grow
// together. It skips the calling test where the comparison says nothing:
// off Linux, where the clock's waits are the runtime's, and on a host
// whose runtime overshoots by less than the sleep itself, one without
// the problem.
func besideRuntimeSleep(t *testing.T, n int, sample func() time.Duration) (got, floor time.Duration) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("the clock waits on a runtime timer here")
	}
	const d = 200 * time.Microsecond
	for round := 0; round < 3; round++ {
		over := make([]time.Duration, 50)
		for i := range over {
			start := time.Now()
			time.Sleep(d)
			over[i] = time.Since(start) - d
		}
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = sample()
		}
		g, f := quantile(xs, 0.5), quantile(over, 0.5)
		if round == 0 || float64(g)*float64(floor) < float64(got)*float64(f) {
			got, floor = g, f
		}
	}
	if floor < d {
		t.Skipf("time.Sleep(%v) overshoots by only %v here", d, floor)
	}
	return got, floor
}

func TestWaitNeverReturnsEarly(t *testing.T) {
	for _, compression := range []float64{0.5, 1, 300, 2000} {
		c := NewClock(compression)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 125; i++ {
					// From nothing to 400 µs of wall time: waits that are
					// yielded through, waits that are queued, and the
					// boundary between them.
					d := Duration(float64(rng.Intn(400_000)) * compression)
					if i%2 == 0 {
						deadline := c.Now() + Time(d)
						c.SleepUntil(deadline)
						if now := c.Now(); now < deadline {
							t.Errorf("compression %v: SleepUntil(%d) returned at %d", compression, deadline, now)
						}
					} else {
						start := c.Now()
						c.Sleep(d)
						if got := Duration(c.Now() - start); got < d {
							t.Errorf("compression %v: Sleep(%v) took %v", compression, d, got)
						}
					}
				}
			}()
		}
		wg.Wait()
		c.Stop()
	}
}

func TestEarlierDeadlineCutsTheWait(t *testing.T) {
	c := NewClock(1)
	defer c.Stop()
	const long, short = 2 * time.Second, 5 * time.Millisecond
	longDone := make(chan struct{})
	go func() {
		c.Sleep(long)
		close(longDone)
	}()
	eventually(t, "long sleeper queued", func() bool { return parked(c) == 1 })

	// The timer is now set two seconds out. A deadline ahead of that one
	// must be woken at its own time.
	start := c.Now()
	c.Sleep(short)
	if got := Duration(c.Now() - start); got < short || got > long/2 {
		t.Fatalf("Sleep(%v) behind a pending %v wait took %v", short, long, got)
	}

	// Equal deadlines all fire, none early.
	deadline := c.Now() + Time(20*time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.SleepUntil(deadline)
			if now := c.Now(); now < deadline {
				t.Errorf("SleepUntil(%d) returned at %d", deadline, now)
			}
		}()
	}
	wg.Wait()
	select {
	case <-longDone:
		t.Fatalf("the %v sleeper returned after %v", long, Duration(c.Now()))
	default:
	}
}

func TestSleepOvershootsLessThanTheRuntime(t *testing.T) {
	const d = 200 * time.Microsecond
	c := NewClock(1)
	defer c.Stop()
	got, floor := besideRuntimeSleep(t, 200, func() time.Duration {
		start := time.Now()
		c.Sleep(d)
		return time.Since(start) - d
	})
	if got > floor/2 {
		t.Fatalf("Clock.Sleep(%v) overshoots by %v in the median; time.Sleep by %v", d, got, floor)
	}
}

// TestFireWakesTheDueAndKeepsTheRest drives the routine the timer
// goroutine and the yielding sleepers share, with sleepers nobody is
// behind, so it waits for nothing.
func TestFireWakesTheDueAndKeepsTheRest(t *testing.T) {
	c := NewClock(1)
	defer c.Stop()
	c.Sleep(time.Millisecond) // the kernel timer exists from the first queued wait on
	tm := &c.tm
	now := tm.now()
	mk := func(at time.Duration) sleeper { return sleeper{at, make(chan struct{}, 1)} }
	due, alsoDue, soon, later := mk(now-1), mk(now), mk(now+time.Hour), mk(now+2*time.Hour)
	woken := func(s sleeper) bool { return len(s.ch) == 1 }

	tm.mu.Lock()
	defer tm.mu.Unlock()
	for _, s := range []sleeper{later, due, soon, alsoDue} {
		tm.push(s)
	}
	tm.fire(now)
	if !woken(due) || !woken(alsoDue) || woken(soon) || woken(later) {
		t.Fatalf("fire(now) woke due=%v alsoDue=%v soon=%v later=%v", woken(due), woken(alsoDue), woken(soon), woken(later))
	}
	if tm.next != soon.at || time.Duration(tm.due.Load()) != soon.at {
		t.Fatalf("timer set to %v (%v without the lock), want %v", tm.next, time.Duration(tm.due.Load()), soon.at)
	}
	tm.fire(soon.at)
	if !woken(soon) || woken(later) || tm.next != later.at {
		t.Fatalf("fire(soon) woke soon=%v later=%v, timer set to %v", woken(soon), woken(later), tm.next)
	}
	tm.fire(later.at)
	if !woken(later) || len(tm.heap) != 0 || tm.next != forever || time.Duration(tm.due.Load()) != forever {
		t.Fatalf("fire(later) woke later=%v, %d left, timer set to %v", woken(later), len(tm.heap), tm.next)
	}
}

func TestMarginFollowsTheWakeUps(t *testing.T) {
	c := NewClock(1)
	defer c.Stop()
	// A fresh clock aims at the deadline itself, and a wake-up takes time:
	// every queued wait ends late and stretches the margin.
	for i := 0; i < 20; i++ {
		c.Sleep(300 * time.Microsecond)
	}
	if got := c.tm.margin.Load(); got <= 0 {
		t.Fatalf("margin %d after 20 late wake-ups", got)
	}
	// Waits that end on time shrink it again, those too short to queue
	// among them, so it cannot stay where one bad moment has put it.
	const high = time.Second
	c.tm.margin.Store(int64(high))
	for i := 0; i < 200; i++ {
		c.Sleep(20 * time.Microsecond)
	}
	if got := time.Duration(c.tm.margin.Load()); got > high/4 {
		t.Fatalf("margin %v after 200 waits that ended on time, from %v", got, high)
	}
}

func TestWaitsAllocateNothing(t *testing.T) {
	c := NewClock(1)
	defer c.Stop()
	r := NewResource(c, "allocs")
	for _, d := range []time.Duration{time.Microsecond, 300 * time.Microsecond} { // yielded through, queued
		if n := testing.AllocsPerRun(100, func() { c.Sleep(d) }); n != 0 {
			t.Errorf("Clock.Sleep(%v): %v allocations per call", d, n)
		}
		if n := testing.AllocsPerRun(100, func() { r.Use(d) }); n != 0 {
			t.Errorf("Resource.Use(%v): %v allocations per call", d, n)
		}
	}
}

// procCounts reads this process's thread count from /proc/self/status
// and counts its open descriptors; ok is false where there is no /proc.
func procCounts(t *testing.T) (threads, fds int, ok bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, found := strings.CutPrefix(line, "Threads:"); found {
			threads, err = strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return threads, len(entries), true
}

func TestStopStrandsNobodyAndLeaksNothing(t *testing.T) {
	// With sleepers pending: each still gets its full wait.
	c := NewClock(1)
	const d = 30 * time.Millisecond
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := c.Now()
			c.Sleep(d)
			if got := Duration(c.Now() - start); got < d {
				t.Errorf("Sleep(%v) across Stop took %v", d, got)
			}
		}()
	}
	eventually(t, "sleepers queued", func() bool { return parked(c) == 8 })
	c.Stop()
	wg.Wait()
	// A sleep begun on a stopped clock still takes its time.
	start := c.Now()
	c.Sleep(2 * time.Millisecond)
	if got := Duration(c.Now() - start); got < 2*time.Millisecond {
		t.Fatalf("Sleep(2ms) on a stopped clock took %v", got)
	}
	eventually(t, "timer goroutine gone", func() bool {
		c.tm.mu.Lock()
		defer c.tm.mu.Unlock()
		return !c.tm.running
	})

	// With none pending, and never slept on at all; then 200 clocks
	// leave behind no goroutine, no thread and no descriptor.
	NewClock(1).Stop()
	goroutines := runtime.NumGoroutine()
	threads, fds, haveProc := procCounts(t)
	for i := 0; i < 200; i++ {
		c := NewClock(1)
		c.Sleep(100 * time.Microsecond)
		if i%2 == 0 {
			go c.Sleep(time.Millisecond) // still pending at Stop
		}
		c.Stop()
	}
	eventually(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= goroutines })
	if haveProc {
		nowThreads, nowFds, _ := procCounts(t)
		// The runtime may have started a thread or two of its own
		// meanwhile; a thread a clock would be two hundred.
		if nowThreads > threads+runtime.GOMAXPROCS(0)+4 {
			t.Errorf("threads: %d before 200 clocks, %d after", threads, nowThreads)
		}
		if nowFds > fds { // fewer: an earlier test's stopped clock has drained meanwhile
			t.Errorf("descriptors: %d before 200 clocks, %d after", fds, nowFds)
		}
	}
}

func TestCostsAreConserved(t *testing.T) {
	c := NewClock(1)
	defer c.Stop()
	r := NewResource(c, "conserve")
	const goroutines, uses, cost = 4, 25, 200 * time.Microsecond
	start := c.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < uses; i++ {
				if end := r.Use(cost); c.Now() < end {
					t.Errorf("Use returned at %d, before its service ended at %d", c.Now(), end)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := Duration(c.Now()-start), Duration(goroutines*uses*cost); got < want {
		t.Fatalf("%d x %d uses of %v finished in %v, want >= %v", goroutines, uses, cost, got, want)
	}
	if got, want := r.BusyTime(), Duration(goroutines*uses*cost); got != want {
		t.Fatalf("busy time %v, want %v", got, want)
	}

	// A thread that charges one thing after another pays their sum: no
	// wait ends early on credit from the next.
	a, b := NewResource(c, "a"), NewResource(c, "b")
	disk := NewDisk(c, "d", DiskParams{Capacity: 1 << 20, SeekTime: time.Millisecond, TransferRate: 64 << 20})
	nv := NewNVRAM(c, disk, 64<<10, 50*time.Microsecond)
	defer nv.Close()
	sector := make([]byte, SectorSize)
	start = c.Now()
	var sum Duration
	for i := 0; i < 20; i++ {
		a.Use(250 * time.Microsecond)
		b.Use(30 * time.Microsecond)
		c.Sleep(7 * time.Microsecond)
		if err := nv.WriteAt(sector, 0); err != nil {
			t.Fatal(err)
		}
		sum += 250*time.Microsecond + 30*time.Microsecond + 7*time.Microsecond + 50*time.Microsecond
	}
	if got := Duration(c.Now() - start); got < sum {
		t.Fatalf("a serial chain of waits worth %v took %v", sum, got)
	}
}

func TestNetworkPairFIFOUnderMixedSizes(t *testing.T) {
	w := NewWorld(1000, 1)
	defer w.Stop()
	senders := []string{"s0", "s1", "s2"}
	w.AddMachine("rx", DefaultLinkParams())
	const msgs = 60
	sizes := []int{64, 64 << 10, 4 << 10, 1, 256 << 10}
	type numbered struct{ from, seq int }
	var mu sync.Mutex
	next := make([]int, len(senders))
	done := make(chan struct{}, len(senders)*msgs)
	w.Net.Register("rx", func(m Message) {
		p := m.Payload.(numbered)
		mu.Lock()
		if p.seq != next[p.from] {
			t.Errorf("from %s: message %d delivered when %d was due", senders[p.from], p.seq, next[p.from])
		}
		next[p.from] = p.seq + 1
		mu.Unlock()
		done <- struct{}{}
	})
	for from, name := range senders {
		w.AddMachine(name, DefaultLinkParams())
		go func() {
			for seq := 0; seq < msgs; seq++ {
				if err := w.Net.Send(name, "rx", numbered{from, seq}, sizes[(seq+from)%len(sizes)]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := 0; i < len(senders)*msgs; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d messages delivered", i, len(senders)*msgs)
		}
	}
}

// TestNetworkSmallMessageIsNotHeldBehindLargeOneInFlight is the reason
// Send reserves the receiver's ingress when the last byte has left the
// sender and not when Send is called.
func TestNetworkSmallMessageIsNotHeldBehindLargeOneInFlight(t *testing.T) {
	w := NewWorld(1, 1)
	defer w.Stop()
	for _, name := range []string{"a", "b", "c"} {
		w.AddMachine(name, DefaultLinkParams())
	}
	got := make(chan string, 2)
	w.Net.Register("b", func(m Message) { got <- m.From })
	go func() {
		if err := w.Net.Send("a", "b", nil, 1<<20); err != nil { // ~60 ms on a's egress
			t.Error(err)
		}
	}()
	eventually(t, "a's send under way", func() bool { sent, _, _ := w.Net.Stats(); return sent == 1 })
	if err := w.Net.Send("c", "b", nil, 64); err != nil {
		t.Fatal(err)
	}
	if first := <-got; first != "c" {
		t.Fatalf("the message from %s arrived first", first)
	}
	if second := <-got; second != "a" {
		t.Fatalf("second arrival from %s", second)
	}
}

func TestNetworkOneWayTimeOf4KB(t *testing.T) {
	const size = 4 << 10
	p := DefaultLinkParams()
	wire := Duration(float64(size) / float64(p.Bandwidth) * 1e9)
	modelled := 2*wire + 2*p.Latency // 0.86 ms
	w := NewWorld(1, 1)
	defer w.Stop()
	w.AddMachine("a", p)
	w.AddMachine("b", p)
	arrived := make(chan Time, 1)
	w.Net.Register("b", func(Message) { arrived <- w.Clock.Now() })
	oneWay := func() time.Duration {
		start := w.Clock.Now()
		if err := w.Net.Send("a", "b", nil, size); err != nil {
			t.Fatal(err)
		}
		took := Duration(<-arrived - start)
		if took < modelled {
			t.Fatalf("a %d-byte message took %v one way, modelled %v", size, took, modelled)
		}
		return took
	}
	// Two waits where there were three sleeps: the whole way costs less
	// beyond its model than one sleep of the runtime's does (1.1 ms on
	// the reference host, where the way took 3.4 ms and now takes 1.1).
	if got, floor := besideRuntimeSleep(t, 100, oneWay); got-modelled > floor {
		t.Fatalf("a %d-byte message took %v one way in the median, modelled %v; time.Sleep overshoots by %v", size, got, modelled, floor)
	}
}

func TestNVRAMFlushWaitsForTheDestager(t *testing.T) {
	// At this compression the old Flush's 1 ms poll is a 500 ns wait,
	// which the clock yields through: Flush must wait for the destager's
	// broadcast instead.
	c := NewClock(2000)
	defer c.Stop()
	slow := DiskParams{Capacity: 1 << 20, SeekTime: 200 * time.Millisecond, TransferRate: 1 << 20}
	d := NewDisk(c, "slow", slow)
	nv := NewNVRAM(c, d, 256<<10, 50*time.Microsecond)
	want := make([]byte, 64*SectorSize)
	rand.New(rand.NewSource(1)).Read(want)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ { // four scattered runs: four seeks for the destager
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := int64(i) * 16 * SectorSize
			if err := nv.WriteAt(want[off:off+16*SectorSize], off*3); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	nv.Flush()
	nv.mu.Lock()
	staged := len(nv.dirty)
	nv.mu.Unlock()
	if staged != 0 {
		t.Fatalf("Flush returned with %d sectors staged", staged)
	}
	for i := 0; i < 4; i++ {
		off := int64(i) * 16 * SectorSize
		got := make([]byte, 16*SectorSize)
		if err := d.ReadAt(got, off*3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[off:off+16*SectorSize]) {
			t.Fatalf("run %d is not on the disk after Flush", i)
		}
	}
	nv.Close() // Flush again, on an empty buffer, then stop the destager
}
