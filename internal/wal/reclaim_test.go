package wal

import (
	"testing"
	"time"
)

// TestPacedAsyncReclaim checks the high-water pacing that replaces
// log-full stalls at scale: crossing 3/4 occupancy kicks ONE
// background reclaim of the oldest quarter, and a writer that keeps
// inside the paced regime never hits the synchronous stall backstop.
func TestPacedAsyncReclaim(t *testing.T) {
	region := newMemRegion(DefaultLogSize)
	l := New(region, DefaultLogSize)

	released := make(chan int64, 16)
	l.SetReclaim(func(through int64) {
		// A real reclaimer flushes the covered updates to their home
		// locations first; for pacing semantics, releasing is enough.
		l.Release(through)
		released <- through
	})

	// Fill toward the high-water mark with records far smaller than
	// the reclaim quarter. The first crossing must come from the
	// paced path, not the log-full backstop.
	data := make([]byte, 400)
	for l.Stats().AsyncReclaims == 0 {
		if _, err := l.Append([]Update{{Addr: 0, Off: 0, Data: data, Ver: 1}}); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.StallReclaims != 0 {
			t.Fatal("hit the stall backstop before the paced reclaim fired")
		}
	}
	select {
	case through := <-released:
		if through <= 0 {
			t.Fatalf("reclaim callback got through=%d", through)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("async reclaim callback never ran")
	}
	// The release must actually advance the tail (drop occupancy).
	deadline := time.Now().Add(10 * time.Second)
	for {
		l.mu.Lock()
		tail, reclaiming := l.tail, l.reclaiming
		l.mu.Unlock()
		if tail > 0 && !reclaiming {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tail never advanced after async reclaim")
		}
		time.Sleep(time.Millisecond)
	}

	// Sustained writing at this rhythm — append, let any kicked
	// reclaim drain before pressing into the wall — stays entirely on
	// the paced path: more async reclaims, still zero stalls.
	for i := 0; i < 300; i++ {
		if _, err := l.Append([]Update{{Addr: int64(i) * 512, Off: 0, Data: data, Ver: 2}}); err != nil {
			t.Fatal(err)
		}
		for {
			l.mu.Lock()
			occ := l.head - l.tail
			cap34 := l.streamCapacity() * 3 / 4
			l.mu.Unlock()
			if occ <= cap34 {
				break
			}
			select {
			case <-released:
			case <-time.After(10 * time.Second):
				t.Fatal("reclaim stopped keeping pace")
			}
		}
	}
	st := l.Stats()
	if st.StallReclaims != 0 {
		t.Fatalf("paced writer hit %d stall reclaims, want 0", st.StallReclaims)
	}
	if st.AsyncReclaims < 2 {
		t.Fatalf("async reclaims = %d, want >= 2 under sustained load", st.AsyncReclaims)
	}
}

// TestReclaimKickAfterHeldReclaim: Appends that cross the high-water
// mark while a paced reclaim runs find it running and kick nothing. When
// that reclaim ends with the log still above the mark, the log starts
// the next one itself, with no further Append to prompt it.
func TestReclaimKickAfterHeldReclaim(t *testing.T) {
	l := New(newMemRegion(DefaultLogSize), DefaultLogSize)
	started := make(chan int64, 4)
	proceed := make(chan struct{})
	calls := 0
	l.SetReclaim(func(through int64) {
		calls++
		started <- through
		if calls == 1 {
			<-proceed
			l.Release(1) // a partial reclaim: the oldest record only
			return
		}
		l.Release(through)
	})
	data := make([]byte, 400)
	appendOne := func(i int) {
		t.Helper()
		if _, err := l.Append([]Update{{Addr: int64(i) * 512, Data: data, Ver: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	for ; l.Stats().AsyncReclaims == 0; i++ {
		appendOne(i)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the first paced reclaim never ran")
	}
	// Further past three quarters while the first reclaim is held: far
	// enough that releasing one record leaves the log above the mark,
	// short of the stall wall.
	for end := i + 20; i < end; i++ {
		appendOne(i)
	}
	if st := l.Stats(); st.AsyncReclaims != 1 || st.StallReclaims != 0 {
		t.Fatalf("while the first reclaim ran: %d paced and %d stall reclaims, want 1 and 0", st.AsyncReclaims, st.StallReclaims)
	}
	close(proceed)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		l.mu.Lock()
		occ, cap34 := l.head-l.tail, l.streamCapacity()*3/4
		l.mu.Unlock()
		t.Fatalf("no second reclaim after the first ended at %d of %d bytes past the mark", occ-cap34, cap34)
	}
}
