package sim

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func testClock() *Clock { return NewClock(1000) }

func TestClockCompression(t *testing.T) {
	c := NewClock(100)
	start := time.Now()
	c.Sleep(1 * time.Second) // 1 simulated second = 10ms real
	real := time.Since(start)
	if real < 5*time.Millisecond || real > 500*time.Millisecond {
		t.Fatalf("compressed sleep took %v real, want ~10ms", real)
	}
	if got := c.Now(); got < Time(500*time.Millisecond) {
		t.Fatalf("Now() = %v, want >= ~1s simulated", Duration(got))
	}
}

func TestClockSleepUntilPast(t *testing.T) {
	c := testClock()
	c.Sleep(10 * time.Millisecond)
	start := time.Now()
	c.SleepUntil(0) // in the past: returns immediately
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("SleepUntil in the past blocked")
	}
}

func TestClockTickCancel(t *testing.T) {
	c := NewClock(10) // low compression: real ticker granularity matters here
	var mu sync.Mutex
	n := 0
	cancel := c.Tick(10*time.Millisecond, func() {
		mu.Lock()
		n++
		mu.Unlock()
	})
	c.Sleep(200 * time.Millisecond)
	cancel()
	mu.Lock()
	got := n
	mu.Unlock()
	if got < 2 {
		t.Fatalf("ticker fired %d times, want >= 2", got)
	}
	cancel() // double-cancel must be safe
}

func TestResourceSerializes(t *testing.T) {
	c := testClock()
	r := NewResource(c, "test")
	const workers = 8
	const cost = 10 * time.Millisecond
	var wg sync.WaitGroup
	start := c.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Use(cost)
		}()
	}
	wg.Wait()
	elapsed := Duration(c.Now() - start)
	if elapsed < workers*cost {
		t.Fatalf("8 concurrent uses of a serial resource finished in %v, want >= %v", elapsed, workers*cost)
	}
	if busy := r.BusyTime(); busy != workers*cost {
		t.Fatalf("busy time %v, want %v", busy, workers*cost)
	}
}

func TestResourceUtilization(t *testing.T) {
	c := testClock()
	r := NewResource(c, "u")
	r.ResetStats()
	r.Use(50 * time.Millisecond)
	f, uses := r.Utilization()
	if uses != 1 {
		t.Fatalf("uses = %d, want 1", uses)
	}
	if f <= 0 || f > 1.0 {
		t.Fatalf("utilization %v out of range (0, 1]", f)
	}
	if busy := r.BusyTime(); busy != 50*time.Millisecond {
		t.Fatalf("busy = %v, want 50ms", busy)
	}
}

func TestDiskReadWriteRoundTrip(t *testing.T) {
	c := testClock()
	d := NewDisk(c, "d0", DefaultDiskParams(1<<20))
	data := make([]byte, 4*SectorSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := d.WriteAt(data, 8*SectorSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 8*SectorSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back different data")
	}
	// Unwritten space reads as zero.
	zero := make([]byte, SectorSize)
	if err := d.ReadAt(zero, 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range zero {
		if b != 0 {
			t.Fatal("unwritten sector not zero")
		}
	}
}

// TestDiskSeekAccounting: Seeks counts the I/Os that moved the arm and
// their seek time apart from transfer time. The first I/O moves the arm
// from nowhere; an I/O that starts where the last one ended moves it not
// at all; a hop within 2 MB is a track-to-track seek (an eighth of the
// average, at least 1 ms), and a 4 MB hop the full average.
func TestDiskSeekAccounting(t *testing.T) {
	c := testClock()
	defer c.Stop()
	d := NewDisk(c, "d0", DefaultDiskParams(16<<20))
	p := make([]byte, 8*SectorSize)
	seek := DefaultDiskParams(0).SeekTime
	for _, step := range []struct {
		what     string
		io       func(p []byte, off int64) error
		off      int64
		seeks    int64
		seekTime Duration
	}{
		{"the first write", d.WriteAt, 0, 1, seek / 8},
		{"a sequential write", d.WriteAt, int64(len(p)), 1, seek / 8},
		{"a sequential read", d.ReadAt, 2 * int64(len(p)), 1, seek / 8},
		{"a 4 MB hop", d.ReadAt, 2*int64(len(p)) + 4<<20, 2, seek/8 + seek},
		{"a short hop back", d.WriteAt, 3 << 20, 3, seek/8 + seek + seek/8},
	} {
		if err := step.io(p, step.off); err != nil {
			t.Fatal(err)
		}
		if seeks, seekTime := d.Seeks(); seeks != step.seeks || seekTime != step.seekTime {
			t.Fatalf("after %s: %d seeks, %v seeking; want %d, %v", step.what, seeks, seekTime, step.seeks, step.seekTime)
		}
	}
	if reads, writes, _, _ := d.Stats(); reads != 2 || writes != 3 {
		t.Fatalf("Stats: %d reads, %d writes; want 2 and 3", reads, writes)
	}
}

func TestDiskBounds(t *testing.T) {
	c := testClock()
	d := NewDisk(c, "d0", DefaultDiskParams(4*SectorSize))
	buf := make([]byte, SectorSize)
	if err := d.WriteAt(buf, 4*SectorSize); !errors.Is(err, ErrDiskBounds) {
		t.Fatalf("write past end: err = %v, want ErrDiskBounds", err)
	}
	if err := d.ReadAt(buf, -512); !errors.Is(err, ErrDiskBounds) {
		t.Fatalf("negative read: err = %v, want ErrDiskBounds", err)
	}
	if err := d.WriteAt(buf[:100], 0); err == nil {
		t.Fatal("unaligned write succeeded")
	}
}

func TestDiskFailAndRevive(t *testing.T) {
	c := testClock()
	d := NewDisk(c, "d0", DefaultDiskParams(1<<20))
	buf := make([]byte, SectorSize)
	d.Fail()
	if err := d.WriteAt(buf, 0); !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("err = %v, want ErrDiskFailed", err)
	}
	if !d.Failed() {
		t.Fatal("Failed() = false after Fail()")
	}
	d.Revive()
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatalf("write after revive: %v", err)
	}
}

func TestDiskTornWrite(t *testing.T) {
	c := testClock()
	d := NewDisk(c, "d0", DefaultDiskParams(1<<20))
	old := bytes.Repeat([]byte{0xAA}, 4*SectorSize)
	if err := d.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	d.InjectTornWrite(2)
	next := bytes.Repeat([]byte{0xBB}, 4*SectorSize)
	if err := d.WriteAt(next, 0); !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("torn write err = %v, want ErrDiskFailed", err)
	}
	d.Revive()
	got := make([]byte, 4*SectorSize)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	// Exactly a prefix of sectors is new; each sector is all-old or all-new.
	for s := 0; s < 4; s++ {
		sec := got[s*SectorSize : (s+1)*SectorSize]
		want := byte(0xAA)
		if s < 2 {
			want = 0xBB
		}
		for _, b := range sec {
			if b != want {
				t.Fatalf("sector %d mixes old and new data", s)
			}
		}
	}
}

func TestDiskCorruptSector(t *testing.T) {
	c := testClock()
	d := NewDisk(c, "d0", DefaultDiskParams(1<<20))
	buf := make([]byte, SectorSize)
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	d.CorruptSector(0)
	if err := d.ReadAt(buf, 0); !errors.Is(err, ErrBadSector) {
		t.Fatalf("err = %v, want ErrBadSector", err)
	}
}

func TestDiskSectorAtomicityProperty(t *testing.T) {
	// Property: after a torn write of k sectors into a region of known
	// old content, every sector is either fully old or fully new, and
	// the new sectors form a prefix.
	c := NewClock(100000)
	f := func(k uint8, total uint8) bool {
		n := int(total%6) + 2
		cut := int(k) % (n + 1)
		d := NewDisk(c, "p", DefaultDiskParams(int64(n)*SectorSize))
		old := bytes.Repeat([]byte{1}, n*SectorSize)
		if err := d.WriteAt(old, 0); err != nil {
			return false
		}
		d.InjectTornWrite(cut)
		_ = d.WriteAt(bytes.Repeat([]byte{2}, n*SectorSize), 0)
		d.Revive()
		got := make([]byte, n*SectorSize)
		if err := d.ReadAt(got, 0); err != nil {
			return false
		}
		for s := 0; s < n; s++ {
			want := byte(1)
			if s < cut {
				want = 2
			}
			for _, b := range got[s*SectorSize : (s+1)*SectorSize] {
				if b != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDiskFirstTouchAllocs: a 64 KB write to sectors the disk has never
// held cuts them from one 64 KB slab — one allocation, where a buffer per
// sector was 128. The map is sized beforehand: its growth is the map's,
// amortized, and not what this pins. The least of several rounds is the
// write's own (AllocsPerRun counts the whole process).
func TestDiskFirstTouchAllocs(t *testing.T) {
	const runs, rounds = 20, 4
	c := NewClock(1e6)
	t.Cleanup(c.Stop)
	d := NewDisk(c, "d", DiskParams{Capacity: 32 << 20, SeekTime: time.Millisecond, TransferRate: 64 << 20})
	p := make([]byte, 64<<10)
	d.sectors = make(map[int64][]byte, rounds*(runs+1)*len(p)/SectorSize)
	var off int64
	least := -1.0
	for r := 0; r < rounds; r++ {
		n := testing.AllocsPerRun(runs, func() {
			if err := d.WriteAt(p, off); err != nil {
				t.Fatal(err)
			}
			off += int64(len(p))
		})
		if least < 0 || n < least {
			least = n
		}
	}
	if least != 1 && !raceBuild() {
		t.Errorf("a 64 KB write to fresh sectors: %v allocations, want 1 (its slab)", least)
	}
}

func TestNetworkDelivery(t *testing.T) {
	w := NewWorld(1000, 1)
	w.AddMachine("a", DefaultLinkParams())
	w.AddMachine("b", DefaultLinkParams())
	got := make(chan Message, 1)
	w.Net.Register("b", func(m Message) { got <- m })
	if err := w.Net.Send("a", "b", "hello", 100); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Payload.(string) != "hello" || m.From != "a" {
			t.Fatalf("bad message %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestNetworkPartition(t *testing.T) {
	w := NewWorld(1000, 1)
	w.AddMachine("a", DefaultLinkParams())
	w.AddMachine("b", DefaultLinkParams())
	got := make(chan Message, 8)
	w.Net.Register("b", func(m Message) { got <- m })

	w.Net.Isolate("b")
	if err := w.Net.Send("a", "b", "x", 10); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send to isolated host: err = %v", err)
	}
	w.Net.Heal("b")
	w.Net.CutBoth("a", "b")
	if err := w.Net.Send("a", "b", "x", 10); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send over cut: err = %v", err)
	}
	w.Net.Reconnect("a", "b")
	if err := w.Net.Send("a", "b", "y", 10); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("message not delivered after reconnect")
	}
}

func TestNetworkUnknownHost(t *testing.T) {
	w := NewWorld(1000, 1)
	w.AddMachine("a", DefaultLinkParams())
	if err := w.Net.Send("a", "ghost", "x", 1); !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("err = %v, want ErrNoSuchHost", err)
	}
	if err := w.Net.Send("ghost", "a", "x", 1); !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("err = %v, want ErrNoSuchHost", err)
	}
}

func TestNetworkBandwidthSaturation(t *testing.T) {
	// Two senders into one receiver must share the receiver's ingress:
	// total time >= bytes/bandwidth.
	w := NewWorld(200, 1)
	p := LinkParams{Latency: 0, Bandwidth: 1 << 20} // 1 MB/s
	w.AddMachine("rx", p)
	w.AddMachine("s1", LinkParams{Latency: 0, Bandwidth: 8 << 20})
	w.AddMachine("s2", LinkParams{Latency: 0, Bandwidth: 8 << 20})
	var wg sync.WaitGroup
	done := make(chan struct{}, 64)
	w.Net.Register("rx", func(m Message) { done <- struct{}{} })
	start := w.Clock.Now()
	const msgs, size = 8, 128 << 10 // 1 MB total into a 1 MB/s ingress
	for i := 0; i < msgs; i++ {
		wg.Add(1)
		sender := "s1"
		if i%2 == 1 {
			sender = "s2"
		}
		go func(s string) {
			defer wg.Done()
			_ = w.Net.Send(s, "rx", "data", size)
		}(sender)
	}
	wg.Wait()
	for i := 0; i < msgs; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for deliveries")
		}
	}
	elapsed := Duration(w.Clock.Now() - start)
	if elapsed < 900*time.Millisecond {
		t.Fatalf("1 MB through a 1 MB/s ingress took %v simulated, want >= ~1s", elapsed)
	}
}

func TestNVRAMWriteThrough(t *testing.T) {
	c := testClock()
	d := NewDisk(c, "d0", DefaultDiskParams(1<<20))
	nv := NewNVRAM(c, d, 64<<10, 50*time.Microsecond)
	defer nv.Close()
	data := bytes.Repeat([]byte{7}, 4*SectorSize)
	if err := nv.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Read-through sees the data immediately, before destage.
	got := make([]byte, len(data))
	if err := nv.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-through mismatch")
	}
	nv.Flush()
	// Now the raw disk has it too.
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("destaged data mismatch")
	}
}

func TestNVRAMAbsorbsLatency(t *testing.T) {
	// Compression 1 (sim == real) so scheduling overhead cannot
	// inflate the simulated elapsed time (matters under -race).
	c := NewClock(1)
	slow := DiskParams{Capacity: 1 << 20, SeekTime: 50 * time.Millisecond, TransferRate: 1 << 20}
	d := NewDisk(c, "slow", slow)
	nv := NewNVRAM(c, d, 1<<20, 100*time.Microsecond)
	defer nv.Close()
	buf := make([]byte, SectorSize)
	start := c.Now()
	for i := 0; i < 10; i++ {
		if err := nv.WriteAt(buf, int64(i)*SectorSize); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := Duration(c.Now() - start)
	// 10 writes hitting the raw disk would pay >= one 50ms seek; via
	// NVRAM they should cost ~1ms total.
	if elapsed > 40*time.Millisecond {
		t.Fatalf("NVRAM writes took %v simulated; latency not absorbed", elapsed)
	}
}

func TestWorldDeterministicRand(t *testing.T) {
	a := NewWorld(1000, 42)
	b := NewWorld(1000, 42)
	for i := 0; i < 100; i++ {
		if a.Rand() != b.Rand() {
			t.Fatal("same seed produced different sequences")
		}
	}
	if a.RandIntn(10) < 0 || a.RandIntn(10) > 9 {
		t.Fatal("RandIntn out of range")
	}
}

func TestWorldCPUAccounting(t *testing.T) {
	w := NewWorld(1000, 1)
	cpu := w.AddMachine("m", DefaultLinkParams())
	cpu.ResetStats()
	cpu.Use(20 * time.Millisecond)
	if u := cpu.Utilization(); u <= 0 {
		t.Fatalf("utilization %v, want > 0", u)
	}
	if w.CPU("m") != cpu {
		t.Fatal("CPU() did not return the registered CPU")
	}
	if w.CPU("auto") == nil {
		t.Fatal("CPU() did not auto-create machine")
	}
}

func TestNetworkDirectedCut(t *testing.T) {
	w := NewWorld(1000, 1)
	w.AddMachine("a", DefaultLinkParams())
	w.AddMachine("b", DefaultLinkParams())
	got := make(chan Message, 4)
	w.Net.Register("a", func(m Message) { got <- m })
	w.Net.Register("b", func(m Message) { got <- m })
	w.Net.Cut("a", "b") // one direction only
	if err := w.Net.Send("a", "b", "x", 1); err == nil {
		t.Fatal("send over directed cut succeeded")
	}
	if err := w.Net.Send("b", "a", "y", 1); err != nil {
		t.Fatalf("reverse direction cut too: %v", err)
	}
	select {
	case m := <-got:
		if m.Payload != "y" {
			t.Fatalf("got %v", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reverse message not delivered")
	}
}

func TestNetworkDropEvery(t *testing.T) {
	w := NewWorld(1000, 1)
	w.AddMachine("a", DefaultLinkParams())
	w.AddMachine("b", DefaultLinkParams())
	var mu sync.Mutex
	n := 0
	w.Net.Register("b", func(m Message) { mu.Lock(); n++; mu.Unlock() })
	w.Net.SetDropEvery(2) // drop every second message
	for i := 0; i < 10; i++ {
		_ = w.Net.Send("a", "b", i, 1)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		v := n
		mu.Unlock()
		if v == 5 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Fatalf("delivered %d of 10 with drop-every-2, want 5", n)
}
