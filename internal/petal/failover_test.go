package petal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"frangipani/internal/sim"
)

// chunksWhere returns the first n chunk indexes of "vol", counting
// from from, whose (primary, backup) placement satisfies keep.
func chunksWhere(t *testing.T, tc *testCluster, from int64, n int, keep func(p1, p2 string) bool) []int64 {
	t.Helper()
	st := tc.servers[0].State()
	var out []int64
	for c := from; c < from+4096 && len(out) < n; c++ {
		if p1, p2 := st.Replicas("vol", c); keep(p1, p2) {
			out = append(out, c)
		}
	}
	if len(out) < n {
		t.Fatalf("placement offered %d of %d wanted chunks", len(out), n)
	}
	return out
}

// TestDegradedOutcomesOneVsManyExtents runs every degraded mode the
// retired single-extent path used to handle through the one engine,
// as a one-extent Read/Write and as a 16-extent ReadV/WriteV, and
// checks the two shapes end the same way: same error class, same
// bytes, same simulated-time window. Every op touches a chunk whose
// primary is p1, the server each fault hits.
func TestDegradedOutcomesOneVsManyExtents(t *testing.T) {
	const extLen = 2048
	anyChunk := func(string, string) bool { return true }
	onP1 := func(p1, _ string) bool { return p1 == "p1" }
	deadPair := func(p1, p2 string) bool { return p1 != "p0" && p2 != "p0" }
	expired := func(_ *testing.T, tc *testCluster) {
		tc.client.SetLeaseInfo(func() int64 { return 1 })
	}
	scenarios := []struct {
		name   string
		first  func(p1, p2 string) bool // placement of the op's first chunk
		fault  func(t *testing.T, tc *testCluster)
		wantRd error // nil, or a sentinel the read must wrap
		wantWr error // nil, a sentinel, or errMedia
		// Simulated-time window for a read and for a write.
		rdMin, rdMax, wrMin, wrMax time.Duration
		deadline                   time.Duration // client opDeadline; 0 keeps 30 s
		// after, if set, runs once a write has succeeded, with the
		// first extent's offset and pre-write bytes.
		after func(t *testing.T, tc *testCluster, off int64, old []byte)
	}{
		{
			// Heartbeats stopped but SuspectAfter (10 s here) has not
			// passed: the view still says alive, so the first call must
			// time out — after callTimeout's 5 s for <= one chunk of
			// bytes, as the single-extent path did — before the other
			// replica is tried. A write then waits out the backup's
			// own 5 s forward to the dead primary as well.
			name: "replica crashed, not yet declared dead", first: onP1,
			fault: func(_ *testing.T, tc *testCluster) { tc.servers[1].Crash() },
			rdMin: 5 * time.Second, rdMax: 9 * time.Second,
			wrMin: 10 * time.Second, wrMax: 30 * time.Second,
		},
		{
			// The store errors every chunk access while heartbeats keep
			// the server "alive". Reads fail over per extent at once; a
			// write is refused by the primary's media and that is final,
			// for one extent and for many.
			name: "replica disks failed, still heartbeating", first: onP1,
			fault: func(_ *testing.T, tc *testCluster) {
				for _, d := range tc.servers[1].Disks() {
					d.Fail()
				}
			},
			wantWr: errMedia,
			rdMax:  4 * time.Second, wrMax: 4 * time.Second,
		},
		{
			// Another client snapshots the vdisk after ours cached its
			// view: the write is stamped with the frozen epoch, refused
			// with ErrStaleEpoch, and must be re-stamped from a
			// refreshed view — never offered to the other replica at
			// the stale epoch.
			name: "vdisk snapshotted mid-op", first: onP1,
			fault: func(t *testing.T, tc *testCluster) {
				other := NewClient(tc.w, "ws1", []string{"p0", "p1", "p2"})
				defer other.Close()
				if err := other.Snapshot("vol", "snap"); err != nil {
					t.Fatal(err)
				}
				for _, s := range tc.servers {
					waitUntil(t, time.Minute, func() bool { return s.State().VDisks["vol"].Epoch == 2 })
				}
			},
			rdMax: 4 * time.Second, wrMax: 4 * time.Second,
			after: func(t *testing.T, tc *testCluster, off int64, old []byte) {
				got := make([]byte, len(old))
				if err := tc.client.Read("snap", off, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, old) {
					t.Fatal("the write landed in the snapshot's frozen epoch")
				}
			},
		},
		{
			name: "lease guard rejects", first: onP1, fault: expired,
			wantWr: ErrLeaseExpired,
			rdMax:  4 * time.Second, wrMax: 4 * time.Second,
		},
		{
			// Both replicas of the first chunk are gone for good (and
			// with them the Paxos majority, so nobody is ever declared
			// dead): the op retries until opDeadline and reports
			// ErrUnavailable. The deadline is judged between rounds, and
			// a round here is two call timeouts after a refresh that
			// itself waits out a dead probe and a dead fan-out target.
			name: "replica pair permanently dead", first: deadPair,
			fault: func(_ *testing.T, tc *testCluster) {
				tc.servers[1].Crash()
				tc.servers[2].Crash()
			},
			deadline: 12 * time.Second,
			wantRd:   ErrUnavailable, wantWr: ErrUnavailable,
			rdMin: 12 * time.Second, rdMax: 45 * time.Second,
			wrMin: 12 * time.Second, wrMax: 45 * time.Second,
		},
	}
	for _, sc := range scenarios {
		for _, write := range []bool{false, true} {
			dir, want, lo, hi := "read", sc.wantRd, sc.rdMin, sc.rdMax
			if write {
				dir, want, lo, hi = "write", sc.wantWr, sc.wrMin, sc.wrMax
			}
			for _, n := range []int{1, 16} {
				t.Run(fmt.Sprintf("%s/%s/%d", sc.name, dir, n), func(t *testing.T) {
					tc := newTestClusterAt(t, 40, 3, guardByExpiry)
					d := tc.mustCreate(t, "vol")
					tc.client.SetReadBalance(false) // primary first, so the fault is met first
					if sc.deadline != 0 {
						tc.client.opDeadline = sc.deadline
					}
					chunks := chunksWhere(t, tc, 0, 1, sc.first)
					chunks = append(chunks, chunksWhere(t, tc, chunks[0]+1, n-1, anyChunk)...)
					old, fresh := make([][]byte, n), make([][]byte, n)
					for i, c := range chunks {
						old[i], fresh[i] = patternBuf(extLen, byte(i+1)), patternBuf(extLen, byte(i+101))
						if err := d.WriteAt(old[i], c*ChunkSize); err != nil {
							t.Fatal(err)
						}
					}
					sc.fault(t, tc)

					got := make([][]byte, n)
					rexts, wexts := make([]ReadExtent, n), make([]Extent, n)
					for i, c := range chunks {
						got[i] = bytes.Repeat([]byte{0xAA}, extLen)
						rexts[i] = ReadExtent{Off: c * ChunkSize, Dst: got[i]}
						wexts[i] = Extent{Off: c * ChunkSize, Data: fresh[i]}
					}
					start := tc.w.Clock.Now()
					var err error
					switch {
					case write && n == 1:
						err = d.WriteAt(fresh[0], wexts[0].Off)
					case write:
						err = d.WriteV(wexts)
					case n == 1:
						err = d.ReadAt(got[0], rexts[0].Off)
					default:
						err = d.ReadV(rexts)
					}
					elapsed := time.Duration(tc.w.Clock.Now() - start)

					switch {
					case want == nil && err != nil:
						t.Fatalf("%s failed: %v", dir, err)
					case want == errMedia && (err == nil || errors.Is(err, ErrUnavailable) || errors.Is(err, ErrLeaseExpired)):
						t.Fatalf("%s err = %v, want the primary's media error", dir, err)
					case want != nil && want != errMedia && !errors.Is(err, want):
						t.Fatalf("%s err = %v, want %v", dir, err, want)
					}
					if elapsed < lo || elapsed >= hi {
						t.Fatalf("%s took %v of simulated time, want [%v, %v)", dir, elapsed, lo, hi)
					}
					if err != nil {
						return
					}
					if write {
						// Read back through whatever replicas answer now.
						for i := range got {
							if err := d.ReadAt(got[i], rexts[i].Off); err != nil {
								t.Fatalf("read back extent %d: %v", i, err)
							}
						}
						if sc.after != nil {
							sc.after(t, tc, rexts[0].Off, old[0])
						}
						old = fresh
					}
					for i := range got {
						if !bytes.Equal(got[i], old[i]) {
							t.Fatalf("extent %d holds the wrong bytes after a degraded %s", i, dir)
						}
					}
				})
			}
		}
	}
}

// errMedia stands for "whatever error the primary's failed disks
// produce" in the table above: final, and none of the sentinels.
var errMedia = errors.New("media error")

// TestWriteSnapshotOutlivesTimedOutAttempt: Write copies the caller's
// bytes, and must not recycle the copy while a timed-out attempt is
// still queued at the carrier. The primary's ingress link is held
// busy, so the first WriteVReq sits in its queue past the call
// timeout; the write completes on the backup; the caller scribbles
// over its buffer at once (wal.writeStream reuses its flush buffer
// the moment WriteAt returns) and more writes churn the snapshot pool.
// When the queued request finally lands, the primary must store the
// original bytes.
func TestWriteSnapshotOutlivesTimedOutAttempt(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *ServerConfig) {
		// No forwarding, no anti-entropy: the only way the primary
		// gets the chunk is the delayed client request itself.
		cfg.NoReplicate = true
	})
	d := tc.mustCreate(t, "vol")
	chunk := chunksWhere(t, tc, 0, 1, func(p1, _ string) bool { return p1 == "p1" })[0]

	// ~12 simulated seconds of ingress service at p1's link bandwidth,
	// sent from a host whose own link costs nothing, queued ahead of
	// anything the client sends to p1.
	tc.w.Net.AddHost("flood", sim.LinkParams{Bandwidth: 1 << 50})
	tc.w.Net.ResetStats()
	if err := tc.w.Net.Send("flood", DataAddr("p1"), nil, int(12*sim.DefaultLinkParams().Bandwidth)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, time.Minute, func() bool {
		_, rx := tc.w.Net.LinkUtilization(DataAddr("p1"))
		return rx >= 1
	})

	want := patternBuf(ChunkSize, 0x5C)
	buf := append([]byte(nil), want...)
	before := tc.client.Stats()
	if err := d.WriteAt(buf, chunk*ChunkSize); err != nil {
		t.Fatal(err)
	}
	if got := tc.client.Stats().WriteVRPCs - before.WriteVRPCs; got < 2 {
		t.Fatalf("write took %d RPCs; the first should have timed out in p1's queue", got)
	}
	for i := range buf {
		buf[i] = 0xEE
	}
	// Same size class, other chunks, other bytes: a recycled snapshot
	// would be handed out again here.
	for _, c := range chunksWhere(t, tc, 0, 4, func(p1, _ string) bool { return p1 != "p1" }) {
		if err := d.WriteAt(bytes.Repeat([]byte{0x11}, ChunkSize), c*ChunkSize); err != nil {
			t.Fatal(err)
		}
	}
	// The write leaves in two parts, and p1 may apply the second first:
	// wait until neither half reads as the zeros of a part not yet there.
	var stored []byte
	zeros := make([]byte, ChunkSize/2)
	waitUntil(t, 60*time.Second, func() bool {
		var ok bool
		stored, ok = tc.servers[1].DebugReadChunk("vol", chunk, 0, ChunkSize)
		return ok && !bytes.Equal(stored[:ChunkSize/2], zeros) && !bytes.Equal(stored[ChunkSize/2:], zeros)
	})
	if !bytes.Equal(stored, want) {
		t.Fatalf("the delayed request stored byte 0x%02x..., want the bytes as they were when Write was called (0x%02x...)", stored[0], want[0])
	}
}
